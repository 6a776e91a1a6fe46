#include "mrpf/cache/solve_cache.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "mrpf/common/error.hpp"
#include "mrpf/core/scheme_driver.hpp"

namespace mrpf::cache {

namespace {

using Clock = std::chrono::steady_clock;

u64 elapsed_ns(Clock::time_point start) {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - start)
                              .count());
}

std::size_t cse_bytes(const cse::CseResult& cse) {
  std::size_t bytes = sizeof(cse);
  bytes += cse.subexpressions.size() * sizeof(cse::Subexpression);
  bytes += cse.constants.size() * sizeof(i64);
  for (const auto& expr : cse.expressions) {
    bytes += sizeof(expr) + expr.size() * sizeof(cse::Term);
  }
  return bytes;
}

/// Identity back-references of a canonical vector: values[i] == values[i]
/// << 0, positive — what extract_primaries yields for the canonical bank.
std::vector<core::PrimaryBank::Ref> identity_refs(std::size_t n) {
  std::vector<core::PrimaryBank::Ref> refs(n);
  for (std::size_t i = 0; i < n; ++i) {
    refs[i] = {static_cast<int>(i), 0, false};
  }
  return refs;
}

bool is_identity_refs(const std::vector<core::PrimaryBank::Ref>& refs) {
  for (std::size_t i = 0; i < refs.size(); ++i) {
    if (refs[i].vertex != static_cast<int>(i) || refs[i].shift != 0 ||
        refs[i].negate) {
      return false;
    }
  }
  return true;
}

bool is_canonical_vector(const std::vector<i64>& values) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] <= 0 || values[i] % 2 == 0) return false;
    if (i > 0 && values[i - 1] >= values[i]) return false;
  }
  return true;
}

/// Empty or all-zero: solving is cheaper than caching.
bool is_trivial_bank(const std::vector<i64>& values) {
  return std::all_of(values.begin(), values.end(),
                     [](i64 v) { return v == 0; });
}

/// The canonical form of a plan for storage. MRP schemes: re-index the
/// per-coefficient taps onto the canonical vertices (undoing each
/// coefficient's shift/sign back-reference) and reset the provenance to
/// identity refs — exactly the plan a fresh solve of the canonical bank
/// itself produces. Identity-group schemes: the plan verbatim.
core::SynthPlan canonical_plan_of(core::Scheme scheme, const CanonicalBank& cb,
                                  const core::SynthPlan& plan) {
  core::SynthPlan out = plan.clone();
  if (!uses_mrp_canonical_form(scheme)) return out;
  out.taps.assign(cb.values.size(), arch::Tap{});
  std::vector<char> filled(cb.values.size(), 0);
  for (std::size_t i = 0; i < cb.refs.size(); ++i) {
    const core::PrimaryBank::Ref& ref = cb.refs[i];
    if (ref.vertex < 0) continue;
    const auto v = static_cast<std::size_t>(ref.vertex);
    if (filled[v] != 0) continue;
    arch::Tap tap = plan.taps[i];
    tap.shift -= ref.shift;
    tap.negate = tap.negate != ref.negate;
    tap.constant = cb.values[v];
    out.taps[v] = tap;
    filled[v] = 1;
  }
  for (const char f : filled) {
    MRPF_CHECK(f != 0, "solve cache: bank does not cover every vertex");
  }
  if (out.mrp.has_value()) {
    out.mrp->bank.refs = identity_refs(cb.values.size());
  }
  return out;
}

/// Inverse of canonical_plan_of: maps a canonical MRP plan back onto the
/// requester's bank through its back-references — the same transform
/// core::build_mrp_block applies, so the rehydrated plan is
/// field-for-field identical to a fresh solve of `bank`. The stored plan
/// is canonical (per-vertex taps, identity refs); only this per-coefficient
/// back-transform depends on the original vector. Identity-group plans are
/// exact as stored.
void rehydrate(core::Scheme scheme, const std::vector<i64>& bank,
               CanonicalBank&& cb, core::SynthPlan& plan) {
  if (!uses_mrp_canonical_form(scheme)) return;
  std::vector<arch::Tap> taps(bank.size());
  for (std::size_t i = 0; i < bank.size(); ++i) {
    const core::PrimaryBank::Ref& ref = cb.refs[i];
    if (ref.vertex < 0) {
      taps[i] = arch::Tap{-1, 0, false, 0};
      continue;
    }
    arch::Tap tap = plan.taps[static_cast<std::size_t>(ref.vertex)];
    tap.shift += ref.shift;
    tap.negate = tap.negate != ref.negate;
    tap.constant = bank[i];
    taps[i] = tap;
  }
  plan.taps = std::move(taps);
  if (plan.mrp.has_value()) plan.mrp->bank.refs = std::move(cb.refs);
}

}  // namespace

bool is_canonical_plan(const SolveOptionsTag& tag,
                       const std::vector<i64>& canonical,
                       const core::SynthPlan& plan) {
  const core::Scheme scheme = tag.scheme;
  if (static_cast<int>(scheme) >= core::kNumSchemes) return false;
  if (plan.scheme != scheme) return false;
  // Pass-tag hygiene: pass-off entries carry neither a resolved budget nor
  // xform provenance; pass-on tags always carry the resolved budget (the
  // canonical spec pins it to >= 1 whenever the pass is on).
  const core::PassConfig& passes = tag.spec.passes;
  if (!passes.xform && (passes.xform_budget != 0 || plan.xform.has_value())) {
    return false;
  }
  if (passes.xform && passes.xform_budget == 0) return false;
  if (is_trivial_bank(canonical)) return false;  // never cached
  if (plan.taps.size() != canonical.size()) return false;
  if (uses_mrp_canonical_form(scheme)) {
    if (!is_canonical_vector(canonical)) return false;
    if (plan.cse.has_value()) return false;
    // kBnb carries MRP provenance only on its greedy-fallback path (an
    // exact search win has none); every other MRP-form scheme always does.
    if (scheme != core::Scheme::kBnb && !plan.mrp.has_value()) return false;
    if (plan.mrp.has_value()) {
      const core::MrpResult& mrp = *plan.mrp;
      if (mrp.vertices != canonical || mrp.bank.primaries != canonical) {
        return false;
      }
      if (mrp.bank.refs.size() != canonical.size() ||
          !is_identity_refs(mrp.bank.refs)) {
        return false;
      }
    }
  } else {
    if (plan.mrp.has_value()) return false;
    if (plan.cse.has_value() != (scheme == core::Scheme::kCse)) return false;
  }
  // Structural validation by construction: the ops must replay into a
  // graph and the taps must verifiably multiply by the canonical bank.
  try {
    core::lower_plan(canonical, plan);
  } catch (const Error&) {
    return false;
  }
  return true;
}

std::size_t approx_result_bytes(const core::MrpResult& result) {
  std::size_t bytes = sizeof(result);
  bytes += result.bank.primaries.size() * sizeof(i64);
  bytes += result.bank.refs.size() * sizeof(core::PrimaryBank::Ref);
  bytes += result.vertices.size() * sizeof(i64);
  bytes += result.solution_colors.size() * sizeof(i64);
  bytes += result.seed_values.size() * sizeof(i64);
  bytes += result.roots.size() * sizeof(int);
  bytes += result.vertex_depth.size() * sizeof(int);
  bytes += result.root_is_free.size();
  bytes += result.tree_edges.size() * sizeof(core::TreeEdge);
  if (result.seed_cse.has_value()) bytes += cse_bytes(*result.seed_cse);
  if (result.seed_recursive != nullptr) {
    bytes += approx_result_bytes(*result.seed_recursive);
  }
  return bytes;
}

std::size_t approx_plan_bytes(const core::SynthPlan& plan) {
  std::size_t bytes = sizeof(plan);
  bytes += plan.ops.size() * sizeof(arch::AdderOp);
  bytes += plan.taps.size() * sizeof(arch::Tap);
  if (plan.mrp.has_value()) bytes += approx_result_bytes(*plan.mrp);
  if (plan.cse.has_value()) bytes += cse_bytes(*plan.cse);
  return bytes;
}

SolveCache::SolveCache(const SolveCacheConfig& config)
    : config_{std::max<std::size_t>(config.max_bytes, 1),
              std::max(config.shards, 1)},
      shards_(static_cast<std::size_t>(std::max(config.shards, 1))) {}

void SolveCache::count_lookup(core::Scheme scheme, bool hit) {
  const auto s = static_cast<std::size_t>(scheme);
  if (hit) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    scheme_hits_[s].fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    scheme_misses_[s].fetch_add(1, std::memory_order_relaxed);
  }
}

SolveCache::LruIter SolveCache::find_locked(
    Shard& shard, u64 key, const SolveOptionsTag& tag,
    const std::vector<i64>& canonical) {
  const auto it = shard.index.find(key);
  // Verify, never trust the hash: a different canonical vector or options
  // tag under the same 64-bit key is a miss.
  if (it == shard.index.end() || !(it->second->tag == tag) ||
      it->second->canonical != canonical) {
    return shard.lru.end();
  }
  return it->second;
}

core::SynthPlan SolveCache::get_or_compute(
    const std::vector<i64>& bank, core::Scheme scheme,
    const core::MrpOptions& options,
    const std::function<core::SynthPlan()>& compute, core::SolveInfo* info) {
  if (info != nullptr) *info = core::SolveInfo{};
  const auto start = Clock::now();
  CanonicalBank cb = canonicalize(scheme, bank);
  if (is_trivial_bank(cb.values)) {
    // Trivial (empty/all-zero) bank: solving is cheaper than caching, but
    // the lookup still happened — account for it so hits + misses +
    // trivial always equals the lookup count and lookup_ns stays honest.
    trivial_.fetch_add(1, std::memory_order_relaxed);
    lookup_ns_.fetch_add(elapsed_ns(start), std::memory_order_relaxed);
    return compute();
  }
  // The driver's canonical spec: ignored knobs never fragment the cache.
  const SolveOptionsTag tag{
      scheme, core::scheme_driver(scheme).canonical_options(options)};
  const u64 key = cache::solve_key(cb.content_hash, tag);
  Shard& shard = shard_of(key);
  const std::thread::id self = std::this_thread::get_id();
  core::SynthPlan out;
  bool hit = false;
  std::shared_ptr<Flight> join;
  std::shared_ptr<Flight> lead;
  {
    const std::lock_guard<std::mutex> lock(shard.mu);
    const LruIter it = find_locked(shard, key, tag, cb.values);
    const auto flying = shard.flights.find(key);
    if (it != shard.lru.end()) {
      shard.lru.splice(shard.lru.end(), shard.lru, it);  // touch
      out = it->plan.clone();
      hit = true;
    } else if (flying == shard.flights.end()) {
      lead = std::make_shared<Flight>();
      lead->tag = tag;
      lead->canonical = cb.values;
      lead->leader = self;
      lead->result = lead->done.get_future().share();
      shard.flights.emplace(key, lead);
    } else if (flying->second->leader != self &&
               flying->second->tag == tag &&
               flying->second->canonical == cb.values) {
      join = flying->second;
      joins_.fetch_add(1, std::memory_order_relaxed);
    }
    // Otherwise this thread already leads the key (or a 64-bit collision
    // holds it): solve without single-flight below.
  }
  lookup_ns_.fetch_add(elapsed_ns(start), std::memory_order_relaxed);

  if (hit || join != nullptr) {
    if (join != nullptr) {
      const std::shared_ptr<const core::SynthPlan>& plan = join->result.get();
      // The leader failed: rethrow its message as this thread's own Error.
      if (plan == nullptr) throw Error(join->error);
      out = plan->clone();
    }
    rehydrate(scheme, bank, std::move(cb), out);
    count_lookup(scheme, true);
    if (info != nullptr) {
      info->cache_hit = true;
      info->joined = join != nullptr;
    }
    return out;
  }
  count_lookup(scheme, false);
  const auto abandon = [&](const char* why) {
    if (lead == nullptr) return;
    {
      const std::lock_guard<std::mutex> lock(shard.mu);
      shard.flights.erase(key);
    }
    lead->error = why;
    lead->done.set_value(nullptr);
  };
  try {
    out = compute();
    const auto stored = Clock::now();
    Entry entry = make_entry(scheme, bank, cb, tag, key, out);
    std::shared_ptr<const core::SynthPlan> published;
    if (lead != nullptr) {
      published = std::make_shared<const core::SynthPlan>(entry.plan.clone());
    }
    {
      // Store, then retire the flight, under one lock: a caller arriving
      // from now on finds the entry. A solve outside single flight (a
      // re-entered key or a 64-bit collision) may find it stored already.
      const std::lock_guard<std::mutex> lock(shard.mu);
      if (find_locked(shard, key, tag, entry.canonical) == shard.lru.end()) {
        insert_locked(shard, std::move(entry));
      }
      if (lead != nullptr) shard.flights.erase(key);
    }
    insert_ns_.fetch_add(elapsed_ns(stored), std::memory_order_relaxed);
    if (lead != nullptr) lead->done.set_value(std::move(published));
  } catch (const std::exception& e) {
    abandon(e.what());
    throw;
  } catch (...) {
    abandon("solve cache: the leading solve threw a non-standard exception");
    throw;
  }
  return out;
}

SolveCache::Entry SolveCache::make_entry(core::Scheme scheme,
                                         const std::vector<i64>& bank,
                                         const CanonicalBank& cb,
                                         const SolveOptionsTag& tag, u64 key,
                                         const core::SynthPlan& plan) {
  MRPF_CHECK(plan.scheme == scheme,
             "solve cache: plan scheme does not match the offer");
  MRPF_CHECK(plan.taps.size() == bank.size(),
             "solve cache: plan does not belong to this bank");
  if (uses_mrp_canonical_form(scheme)) {
    MRPF_CHECK(plan.mrp.has_value() || scheme == core::Scheme::kBnb,
               "solve cache: MRP-form plan is missing its provenance");
    MRPF_CHECK(!plan.mrp.has_value() || plan.mrp->vertices == cb.values,
               "solve cache: result does not belong to this bank");
  }
  Entry entry;
  entry.tag = tag;
  entry.key = key;
  entry.plan = canonical_plan_of(scheme, cb, plan);
  entry.canonical = cb.values;
  entry.bytes = approx_plan_bytes(entry.plan) +
                entry.canonical.size() * sizeof(i64) + sizeof(Entry);
  return entry;
}

bool SolveCache::insert_canonical(const SolveOptionsTag& tag,
                                  std::vector<i64> canonical,
                                  core::SynthPlan plan) {
  // The load path validates instead of trusting the file: the vector must
  // obey the scheme's canonical form and the plan must be *its* canonical
  // plan (replayable through the shared lowering path).
  if (!is_canonical_plan(tag, canonical, plan)) return false;
  Entry entry;
  entry.tag = tag;
  entry.key = cache::solve_key(canonical_content_hash(canonical), tag);
  entry.canonical = std::move(canonical);
  entry.plan = std::move(plan);
  entry.bytes = approx_plan_bytes(entry.plan) +
                entry.canonical.size() * sizeof(i64) + sizeof(Entry);
  Shard& shard = shard_of(entry.key);
  const std::lock_guard<std::mutex> lock(shard.mu);
  insert_locked(shard, std::move(entry));
  return true;
}

void SolveCache::insert_locked(Shard& shard, Entry&& entry) {
  const std::size_t budget = config_.max_bytes / shards_.size();
  u64 evicted = 0;
  const auto it = shard.index.find(entry.key);
  if (it != shard.index.end()) {
    // Same key already cached (a true 64-bit collision, or a reload):
    // newest wins, footprint re-accounted.
    shard.bytes -= it->second->bytes;
    shard.lru.erase(it->second);
    shard.index.erase(it);
  }
  shard.bytes += entry.bytes;
  const u64 key = entry.key;
  shard.lru.push_back(std::move(entry));
  shard.index[key] = std::prev(shard.lru.end());
  while (shard.bytes > budget && shard.lru.size() > 1) {
    const Entry& oldest = shard.lru.front();
    shard.bytes -= oldest.bytes;
    shard.index.erase(oldest.key);
    shard.lru.pop_front();
    ++evicted;
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (evicted > 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
}

CacheStats SolveCache::stats() const {
  CacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.trivial = trivial_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.joins = joins_.load(std::memory_order_relaxed);
  s.lookup_ns =
      static_cast<double>(lookup_ns_.load(std::memory_order_relaxed));
  s.insert_ns =
      static_cast<double>(insert_ns_.load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < scheme_hits_.size(); ++i) {
    s.scheme_hits[i] = scheme_hits_[i].load(std::memory_order_relaxed);
    s.scheme_misses[i] = scheme_misses_[i].load(std::memory_order_relaxed);
  }
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    s.entries += shard.lru.size();
    s.in_flight += shard.flights.size();
    s.bytes += shard.bytes;
  }
  return s;
}

void SolveCache::clear() {
  for (Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
    shard.bytes = 0;
  }
}

void SolveCache::for_each(
    const std::function<void(const StoredSolve&)>& fn) const {
  for (const Shard& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mu);
    for (const Entry& entry : shard.lru) {
      StoredSolve view;
      view.key = entry.key;
      view.tag = entry.tag;
      view.canonical = &entry.canonical;
      view.plan = &entry.plan;
      fn(view);
    }
  }
}

}  // namespace mrpf::cache
