// Sharded in-memory LRU cache of canonical synthesis plans — one cache,
// every scheme.
//
// Keyed by the 64-bit solve fingerprint (fingerprint.hpp — canonical bank
// + scheme + options tag), N-way sharded with one mutex and one intrusive
// LRU list per shard, so the batch runners and the daemon's workers can
// hammer it from every thread with no global lock. Entries store the
// *canonical* plan (for the MRP schemes: taps per canonical vertex,
// identity back-references); a hit deep-copies it and swaps in the
// requester's own back-transform, which makes the rehydrated plan
// field-for-field identical to a fresh driver optimize of the original
// bank. Lookups verify the stored canonical words and options tag — a
// 64-bit key collision degrades to a miss, never to wrong data.
//
// get_or_compute is the only lookup, and it is single-flight: each shard
// also holds the solves in flight, keyed like the entries. The first
// caller for a key (the leader) runs the solve, inserts the entry, then
// publishes the canonical plan to every caller that arrived meanwhile
// (the joiners); each joiner rehydrates that plan for its own bank without
// reading the LRU again. A leader's exception reaches every joiner as an
// mrpf::Error with the same message (each thread throws its own object, so
// no exception object crosses threads), the flight is removed, and the
// next caller leads afresh. A thread that re-enters a key it already leads
// probes, solves and stores as a plain cache would, instead of waiting on
// itself.
//
// Counters (hit/miss/insert/evict, per-scheme hit/miss, plus wall ns,
// StageTimers-style) are process-cheap atomics; bench/perf_mrp_sweep and
// bench/baseline_zoo export stats() snapshots into BENCH_mrp.json /
// BENCH_schemes.json.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mrpf/cache/fingerprint.hpp"
#include "mrpf/core/mrp.hpp"
#include "mrpf/core/synth_plan.hpp"

namespace mrpf::cache {

/// Monotonic counters plus a point-in-time size snapshot.
struct CacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 trivial = 0;  // lookups for empty/all-zero banks (never cached)
  u64 inserts = 0;
  u64 evictions = 0;
  /// get_or_compute calls that waited on an equivalent solve in flight,
  /// counted on arrival (each also counts as a hit once the leader
  /// publishes).
  u64 joins = 0;
  u64 in_flight = 0;     // snapshot: solves with a live leader
  u64 entries = 0;       // snapshot
  u64 bytes = 0;         // snapshot (approximate footprint)
  double lookup_ns = 0;  // total wall ns probing (never waiting on a flight)
  double insert_ns = 0;  // total wall ns storing fresh plans
  /// Per-scheme breakdown of hits/misses, indexed by core::Scheme value.
  std::array<u64, core::kNumSchemes> scheme_hits{};
  std::array<u64, core::kNumSchemes> scheme_misses{};
};

struct SolveCacheConfig {
  /// Approximate total footprint budget, split evenly across shards. Each
  /// shard always keeps its most recent entry, even when oversized.
  std::size_t max_bytes = std::size_t{256} << 20;
  /// Number of independent (mutex, LRU, index) shards; clamped to >= 1.
  int shards = 16;
};

class SolveCache final : public core::SolveCacheHook {
 public:
  explicit SolveCache(const SolveCacheConfig& config = {});
  ~SolveCache() override = default;

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  // core::SolveCacheHook
  core::SynthPlan get_or_compute(
      const std::vector<i64>& bank, core::Scheme scheme,
      const core::MrpOptions& options,
      const std::function<core::SynthPlan()>& compute,
      core::SolveInfo* info) override;

  CacheStats stats() const;
  void clear();

  std::size_t max_bytes() const { return config_.max_bytes; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// One entry as seen by the persistence layer (borrowed views — valid
  /// only inside the for_each callback, which runs under the shard lock).
  struct StoredSolve {
    u64 key = 0;
    SolveOptionsTag tag;
    const std::vector<i64>* canonical = nullptr;
    const core::SynthPlan* plan = nullptr;
  };

  /// Visits every entry, shard by shard, oldest first within a shard.
  void for_each(const std::function<void(const StoredSolve&)>& fn) const;

  /// Direct canonical insertion (persistence load path). Returns false —
  /// and stores nothing — unless (tag, canonical, plan) passes
  /// is_canonical_plan. Counts as an insert, not a miss.
  bool insert_canonical(const SolveOptionsTag& tag, std::vector<i64> canonical,
                        core::SynthPlan plan);

 private:
  struct Entry {
    u64 key = 0;
    SolveOptionsTag tag;
    std::vector<i64> canonical;
    core::SynthPlan plan;  // canonical form (see file comment)
    std::size_t bytes = 0;
  };
  /// A solve in flight under get_or_compute. The leader fulfils `done`
  /// with the canonical plan, or sets `error` and fulfils it with null when
  /// its solve threw; joiners wait on `result`.
  struct Flight {
    SolveOptionsTag tag;
    std::vector<i64> canonical;
    std::thread::id leader;
    std::string error;
    std::promise<std::shared_ptr<const core::SynthPlan>> done;
    std::shared_future<std::shared_ptr<const core::SynthPlan>> result;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = oldest, back = most recent
    std::unordered_map<u64, std::list<Entry>::iterator> index;
    std::unordered_map<u64, std::shared_ptr<Flight>> flights;
    std::size_t bytes = 0;
  };

  Shard& shard_of(u64 key) {
    return shards_[static_cast<std::size_t>((key >> 17) ^ key) %
                   shards_.size()];
  }
  using LruIter = std::list<Entry>::iterator;

  /// The cached entry for (key, tag, canonical), or shard.lru.end().
  /// Requires the shard lock.
  static LruIter find_locked(Shard& shard, u64 key, const SolveOptionsTag& tag,
                             const std::vector<i64>& canonical);
  /// Validates a fresh `plan` of `bank` and builds its canonical entry.
  static Entry make_entry(core::Scheme scheme, const std::vector<i64>& bank,
                          const CanonicalBank& cb, const SolveOptionsTag& tag,
                          u64 key, const core::SynthPlan& plan);
  /// Inserts (replacing an entry with the same key), then evicts
  /// oldest-first down to the per-shard budget (always keeping at least
  /// one entry). Requires the shard lock.
  void insert_locked(Shard& shard, Entry&& entry);
  void count_lookup(core::Scheme scheme, bool hit);

  SolveCacheConfig config_;
  std::vector<Shard> shards_;

  std::atomic<u64> hits_{0};
  std::atomic<u64> misses_{0};
  std::atomic<u64> trivial_{0};
  std::atomic<u64> inserts_{0};
  std::atomic<u64> evictions_{0};
  std::atomic<u64> joins_{0};
  std::atomic<u64> lookup_ns_{0};
  std::atomic<u64> insert_ns_{0};
  std::array<std::atomic<u64>, core::kNumSchemes> scheme_hits_{};
  std::array<std::atomic<u64>, core::kNumSchemes> scheme_misses_{};
};

/// Approximate heap footprint of a solve result / plan (used for LRU
/// budgeting; deliberately cheap, not exact).
std::size_t approx_result_bytes(const core::MrpResult& result);
std::size_t approx_plan_bytes(const core::SynthPlan& plan);

/// True iff (tag, canonical, plan) is a valid canonical cache entry: the
/// scheme is in range and matches the plan's provenance (mrp present iff
/// an MRP scheme with matching canonical vertices and identity
/// back-references; cse present iff kCse), `canonical` obeys the scheme's
/// canonical form, and the plan's ops+taps replay through the shared
/// lowering path into a block that verifiably multiplies by `canonical`.
/// The persistence loader dry-runs this over a whole file before
/// inserting anything, so a rejected file leaves the cache untouched.
bool is_canonical_plan(const SolveOptionsTag& tag,
                       const std::vector<i64>& canonical,
                       const core::SynthPlan& plan);

}  // namespace mrpf::cache
