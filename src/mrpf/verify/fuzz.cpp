#include "mrpf/verify/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "mrpf/arch/verilog.hpp"
#include "mrpf/common/bits.hpp"
#include "mrpf/common/env.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/format.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/pass_manager.hpp"
#include "mrpf/core/scheme_driver.hpp"
#include "mrpf/exec/streaming.hpp"
#include "mrpf/io/json_report.hpp"
#include "mrpf/io/result_serde.hpp"
#include "mrpf/rtl/parser.hpp"
#include "mrpf/rtl/simulator.hpp"
#include "mrpf/sim/equivalence.hpp"
#include "mrpf/sim/workload.hpp"

namespace mrpf::verify {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::size_t oracle_index(Oracle o) { return static_cast<std::size_t>(o); }

/// Saturation budgets the generator draws for pass-on cases: small ones
/// exercise the budget-exhausted fallback, the large one lets small banks
/// saturate. Shared with the --xform forcing path so forced runs draw from
/// the same distribution.
constexpr long long kXformFuzzBudgets[] = {10'000, 60'000, 250'000};

/// Deterministic per-case hash: seeds the oracle stimuli, so a replayed
/// case (known only through its FuzzCase fields, not its run seed/index)
/// drives exactly the input streams the original run used.
u64 case_hash(const FuzzCase& c) {
  u64 h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](u64 v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const i64 v : c.coefficients) mix(static_cast<u64>(v));
  for (const int a : c.align) mix(static_cast<u64>(a));
  mix(static_cast<u64>(c.scheme));
  mix(static_cast<u64>(c.input_bits));
  return h;
}

/// The cost oracle's independent recount: replays the plan's ops with
/// plain (checked) integer arithmetic — no arch::AdderGraph involved — and
/// checks structural sanity, tap realization against the bank, and the
/// analytic-cost claim. Returns a one-line defect description or nullopt.
std::optional<std::string> recount_plan(const core::SynthPlan& plan,
                                        const std::vector<i64>& bank) {
  if (plan.taps.size() != bank.size()) {
    return str_format("plan has %zu taps for a %zu-coefficient bank",
                      plan.taps.size(), bank.size());
  }
  if (plan.analytic_adders < 0) {
    return str_format("negative analytic adder cost %d", plan.analytic_adders);
  }
  constexpr i64 kMaxFundamental = (i64{1} << 62) - 1;
  const int n_ops = static_cast<int>(plan.ops.size());
  std::vector<i64> fund;
  fund.reserve(static_cast<std::size_t>(n_ops) + 1);
  fund.push_back(1);  // node 0: the input x
  for (int k = 0; k < n_ops; ++k) {
    const arch::AdderOp& op = plan.ops[k];
    if (op.a < 0 || op.a > k || op.b < 0 || op.b > k) {
      return str_format("op %d references a node that does not exist yet", k);
    }
    if (op.shift_a < 0 || op.shift_a > 62 || op.shift_b < 0 ||
        op.shift_b > 62) {
      return str_format("op %d has a wiring shift outside [0, 62]", k);
    }
    const i128 a = static_cast<i128>(fund[static_cast<std::size_t>(op.a)])
                   << op.shift_a;
    const i128 b = static_cast<i128>(fund[static_cast<std::size_t>(op.b)])
                   << op.shift_b;
    const i128 v = op.subtract ? a - b : a + b;
    if (v == 0) return str_format("op %d computes a zero fundamental", k);
    if (v > kMaxFundamental || v < -kMaxFundamental) {
      return str_format("op %d overflows the 62-bit fundamental range", k);
    }
    fund.push_back(static_cast<i64>(v));
  }
  for (std::size_t i = 0; i < bank.size(); ++i) {
    const arch::Tap& tap = plan.taps[i];
    if (tap.constant != bank[i]) {
      return str_format("tap %zu records constant %lld, bank holds %lld", i,
                        static_cast<long long>(tap.constant),
                        static_cast<long long>(bank[i]));
    }
    if (tap.node < 0) {
      if (bank[i] != 0) {
        return str_format("tap %zu is the zero tap but bank holds %lld", i,
                          static_cast<long long>(bank[i]));
      }
      continue;
    }
    if (tap.node > n_ops) {
      return str_format("tap %zu references node %d of a %d-node graph", i,
                        tap.node, n_ops + 1);
    }
    if (tap.shift > 62 || tap.shift < -62) {
      return str_format("tap %zu has shift %d outside [-62, 62]", i,
                        tap.shift);
    }
    i128 v = fund[static_cast<std::size_t>(tap.node)];
    if (tap.shift >= 0) {
      v <<= tap.shift;
    } else {
      const i128 div = i128{1} << -tap.shift;
      if (v % div != 0) {
        return str_format("tap %zu right-shifts away nonzero bits", i);
      }
      v /= div;
    }
    if (tap.negate) v = -v;
    if (v != static_cast<i128>(bank[i])) {
      return str_format("tap %zu realizes %lld, bank holds %lld", i,
                        static_cast<long long>(static_cast<i64>(v)),
                        static_cast<long long>(bank[i]));
    }
  }
  if (n_ops > plan.analytic_adders) {
    return str_format(
        "replayed graph holds %d adders but the analytic cost claims %d",
        n_ops, plan.analytic_adders);
  }
  return std::nullopt;
}

// The deep-equality helpers (cse/mrp/block/stream/plan mismatch) the
// oracles lean on live in core/plan_equality — shared with the serve
// bench and the gtest helpers, pulled in through fuzz.hpp.

std::string join_i64(const std::vector<i64>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += str_format("%lld", static_cast<long long>(v[i]));
  }
  return out;
}

std::string join_int(const std::vector<int>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ",";
    out += str_format("%d", v[i]);
  }
  return out;
}

std::string json_i64_array(const std::vector<i64>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    out += str_format("%lld", static_cast<long long>(v[i]));
  }
  return out + "]";
}

}  // namespace

const std::array<Oracle, kNumOracles>& all_oracles() {
  static const std::array<Oracle, kNumOracles> oracles = {
      Oracle::kCost, Oracle::kSim, Oracle::kRtl, Oracle::kSerde,
      Oracle::kExec, Oracle::kXform};
  return oracles;
}

std::string to_string(Oracle oracle) {
  switch (oracle) {
    case Oracle::kCost:
      return "cost";
    case Oracle::kSim:
      return "sim";
    case Oracle::kRtl:
      return "rtl";
    case Oracle::kSerde:
      return "serde";
    case Oracle::kExec:
      return "exec";
    case Oracle::kXform:
      return "xform";
  }
  return "unknown";
}

std::optional<Oracle> parse_oracle(std::string_view name) {
  for (const Oracle o : all_oracles()) {
    if (name == to_string(o)) return o;
  }
  return std::nullopt;
}

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kOpShift:
      return "shift";
    case FaultKind::kOpSubtract:
      return "subtract";
    case FaultKind::kTapNegate:
      return "tap";
    case FaultKind::kAnalyticCost:
      return "cost";
  }
  return "unknown";
}

std::optional<FaultKind> parse_fault(std::string_view name) {
  if (name == "none") return FaultKind::kNone;
  if (name == "shift" || name == "1") return FaultKind::kOpShift;
  if (name == "subtract") return FaultKind::kOpSubtract;
  if (name == "tap") return FaultKind::kTapNegate;
  if (name == "cost") return FaultKind::kAnalyticCost;
  return std::nullopt;
}

FaultKind fault_from_env() {
  const char* value = std::getenv("MRPF_FUZZ_INJECT");
  if (value == nullptr || value[0] == '\0') return FaultKind::kNone;
  const std::optional<FaultKind> parsed = parse_fault(value);
  if (!parsed.has_value()) {
    env::warn_once("MRPF_FUZZ_INJECT",
                   str_format("mrpf: MRPF_FUZZ_INJECT=\"%s\" is not a fault "
                              "kind (shift|subtract|tap|cost); not injecting",
                              value));
    return FaultKind::kNone;
  }
  return *parsed;
}

void inject_fault(core::SynthPlan& plan, FaultKind kind) {
  if (kind == FaultKind::kNone) return;
  // The op to corrupt: the one computing the first tap-referenced adder
  // node, so the corruption is guaranteed to be observable at an output
  // (a dangling node's fundamental could change without any tap noticing).
  int target_op = -1;
  for (const arch::Tap& tap : plan.taps) {
    if (tap.node >= 1) {
      target_op = tap.node - 1;
      break;
    }
  }
  if (kind == FaultKind::kOpShift && target_op >= 0) {
    plan.ops[static_cast<std::size_t>(target_op)].shift_a += 1;
    return;
  }
  if (kind == FaultKind::kOpSubtract && target_op >= 0) {
    arch::AdderOp& op = plan.ops[static_cast<std::size_t>(target_op)];
    op.subtract = !op.subtract;
    return;
  }
  if (kind == FaultKind::kTapNegate ||
      ((kind == FaultKind::kOpShift || kind == FaultKind::kOpSubtract) &&
       target_op < 0)) {
    // Fall back to a tap fault when the plan has no corruptible op.
    for (arch::Tap& tap : plan.taps) {
      if (tap.node >= 0 && tap.constant != 0) {
        tap.negate = !tap.negate;
        return;
      }
    }
    // No live tap either (all-zero bank): fall through to the cost fault.
  }
  // kAnalyticCost (and the last-resort fallback): claim one adder fewer
  // than the graph physically holds — only the cost oracle can see this.
  plan.analytic_adders = static_cast<int>(plan.ops.size()) - 1;
}

FuzzCase generate_case(std::uint64_t seed, std::size_t index,
                       const std::vector<core::Scheme>& schemes) {
  const std::vector<core::Scheme> pool =
      schemes.empty() ? std::vector<core::Scheme>(core::all_schemes().begin(),
                                                  core::all_schemes().end())
                      : schemes;
  // splitmix-style stream split: one independent generator per case.
  Rng rng(seed * 0x9E3779B97F4A7C15ULL +
          static_cast<std::uint64_t>(index) * 0xBF58476D1CE4E5B9ULL +
          0x94D049BB133111EBULL);
  FuzzCase c;
  c.scheme = pool[index % pool.size()];

  const int wordlength = static_cast<int>(rng.next_int(4, 20));
  const i64 limit = (i64{1} << (wordlength - 1)) - 1;
  const std::size_t n = static_cast<std::size_t>(rng.next_int(1, 16));
  const bool symmetric = n >= 2 && rng.next_below(4) == 0;
  const std::size_t gen_n = symmetric ? (n + 1) / 2 : n;

  std::vector<i64> half;
  half.reserve(gen_n);
  for (std::size_t i = 0; i < gen_n; ++i) {
    const u64 what = rng.next_below(10);
    i64 v = 0;
    if (what == 0) {
      v = 0;  // explicit zero coefficient
    } else if (what == 1 && !half.empty()) {
      v = half[rng.next_below(half.size())];  // duplicate
    } else if (what == 2) {
      // Near-limit magnitude (the overflow-adjacent corner).
      v = limit - static_cast<i64>(rng.next_below(3));
      if (rng.next_below(2) == 0) v = -v;
    } else if (what == 3) {
      // Pure power of two (free wiring, zero-adder tap).
      v = i64{1} << rng.next_below(static_cast<u64>(wordlength - 1));
      if (rng.next_below(2) == 0) v = -v;
    } else {
      v = rng.next_int(-limit, limit);
    }
    half.push_back(v);
  }
  bool any_nonzero = false;
  for (const i64 v : half) any_nonzero = any_nonzero || v != 0;
  if (!any_nonzero) {
    half[rng.next_below(half.size())] = rng.next_int(1, limit);
  }

  if (symmetric) {
    c.coefficients.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      c.coefficients.push_back(half[std::min(i, n - 1 - i)]);
    }
  } else {
    c.coefficients = std::move(half);
  }

  if (rng.next_below(10) < 3) {
    c.align.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      c.align.push_back(static_cast<int>(rng.next_below(5)));
    }
  }

  static constexpr double kBetas[] = {0.3, 0.5, 0.7};
  static constexpr int kDepths[] = {0, 2, 3};
  static constexpr number::NumberRep kReps[] = {
      number::NumberRep::kSpt, number::NumberRep::kCsd,
      number::NumberRep::kSignMagnitude};
  c.options.beta = kBetas[rng.next_below(3)];
  c.options.depth_limit = kDepths[rng.next_below(3)];
  c.options.recursive_levels = rng.next_below(4) == 0 ? 1 : 0;
  c.options.rep = kReps[rng.next_below(3)];
  c.input_bits = static_cast<int>(rng.next_int(6, 12));
  if (c.scheme == core::Scheme::kBnb) {
    // Drawn LAST and only for kBnb, so every other scheme's case stream is
    // byte-identical to the pre-bnb fuzzer and old replay lines stay valid.
    // Small budgets keep the sweep fast and exercise the kBudget fallback;
    // the large one lets small banks reach a proof.
    static constexpr long long kBudgets[] = {20'000, 100'000, 500'000};
    c.options.opt_budget = kBudgets[rng.next_below(3)];
  }
  // The e-graph pass draws come dead last (after even the kBnb-only
  // budget), so every pre-pass case stream stays byte-identical to the
  // older fuzzer and historical replay lines keep reproducing. A quarter
  // of cases run pass-on, with an explicit budget so replay does not
  // depend on MRPF_XFORM_BUDGET in the environment.
  if (rng.next_below(4) == 0) {
    c.options.passes.xform = true;
    c.options.passes.xform_budget = kXformFuzzBudgets[rng.next_below(3)];
  }
  return c;
}

CaseResult run_case(const FuzzCase& c, const FuzzConfig& config) {
  CaseResult out;
  const auto fail = [&out](Oracle o, std::string detail) {
    out.passed = false;
    out.failure = OracleFailure{o, std::move(detail)};
  };

  const std::vector<i64> bank = core::optimization_bank(c.coefficients);
  core::SynthPlan plan;
  core::SynthPlan pre_pass;  // the driver's plan before passes (xform oracle)
  bool pass_on = false;
  try {
    const core::SchemeDriver& driver = core::scheme_driver(c.scheme);
    const core::MrpOptions canonical = driver.canonicalize(c.options);
    plan = driver.optimize(bank, canonical);
    pass_on = canonical.passes.xform;
    if (pass_on) {
      pre_pass = plan.clone();
      core::apply_plan_passes(bank, canonical, plan);
    }
  } catch (const Error& e) {
    // A driver must synthesize every valid bank; an optimize-time throw is
    // itself a finding, attributed to the structural (cost) oracle.
    fail(Oracle::kCost, str_format("driver optimize threw: %s", e.what()));
    return out;
  }
  if (c.inject != FaultKind::kNone) inject_fault(plan, c.inject);

  const u64 stimulus_seed = case_hash(c);

  // The lowered filter, built lazily inside the first oracle that needs it
  // so a lowering throw is attributed to an enabled oracle.
  std::optional<arch::TdfFilter> filter;
  const auto lowered_filter = [&]() -> const arch::TdfFilter& {
    if (!filter.has_value()) {
      arch::MultiplierBlock block = core::lower_plan(bank, plan);
      filter.emplace(
          core::expand_block_to_tdf(c.coefficients, c.align, std::move(block)));
    }
    return *filter;
  };

  for (const Oracle oracle : all_oracles()) {
    const std::size_t oi = oracle_index(oracle);
    if (!config.oracles[oi]) continue;
    const std::uint64_t t0 = now_ns();
    try {
      switch (oracle) {
        case Oracle::kCost: {
          if (auto defect = recount_plan(plan, bank)) {
            fail(oracle, *defect);
          }
          break;
        }
        case Oracle::kSim: {
          const sim::EquivalenceReport r = sim::check_equivalence_suite(
              lowered_filter(), c.input_bits, config.sim_samples,
              stimulus_seed);
          if (!r.equivalent) fail(oracle, r.to_string());
          break;
        }
        case Oracle::kRtl: {
          const arch::TdfFilter& f = lowered_filter();
          const std::string verilog =
              arch::emit_tdf_filter(f, c.input_bits, "fuzz_dut");
          rtl::Simulator rtl_sim(rtl::parse_module(verilog));
          Rng rng(stimulus_seed ^ 0xF122F122F122F122ULL);
          const std::vector<i64> x =
              sim::uniform_stream(rng, config.rtl_samples, c.input_bits);
          const sim::EquivalenceReport r =
              sim::compare_streams(f.run(x), rtl_sim.run_filter(x));
          if (!r.equivalent) fail(oracle, "rtl vs model: " + r.to_string());
          break;
        }
        case Oracle::kSerde: {
          std::vector<std::uint8_t> buffer;
          io::serialize_plan(plan, buffer);
          std::size_t pos = 0;
          const core::SynthPlan round_trip =
              io::deserialize_plan(buffer.data(), buffer.size(), pos);
          if (pos != buffer.size()) {
            fail(oracle, "serde frame did not consume its exact length");
            break;
          }
          if (auto m = core::plan_mismatch(plan, round_trip)) {
            fail(oracle, "serde round-trip: " + *m);
            break;
          }
          // Re-lowered equivalence: the rehydrated plan must produce the
          // identical physical block.
          const arch::MultiplierBlock original = core::lower_plan(bank, plan);
          const arch::MultiplierBlock rehydrated =
              core::lower_plan(bank, round_trip);
          if (auto m = core::block_mismatch(original, rehydrated)) {
            fail(oracle, "serde round-trip: " + *m);
          }
          break;
        }
        case Oracle::kExec: {
          const arch::TdfFilter& f = lowered_filter();
          Rng rng(stimulus_seed ^ 0xE6ECE6ECE6ECE6ECULL);
          // Two kernel blocks beyond the configured length, so the
          // whole-stream push and the block-sized chunks below cross
          // kernel block boundaries.
          const std::vector<i64> x = sim::uniform_stream(
              rng, config.sim_samples + 2 * exec::ExecEngine::kBlock,
              c.input_bits);
          const std::vector<i64> expect = f.run(x);

          exec::ExecConfig ec;
          ec.input_bits = c.input_bits;
          exec::StreamingFilter sf(f, ec);

          // Whole-stream push on a fresh filter.
          if (auto m = core::stream_mismatch(expect, sf.push(x), "exec push")) {
            fail(oracle, *m);
            break;
          }

          // Reset-replay in uneven chunks: state carried across push
          // boundaries must reproduce the same stream. Chunks are short
          // (1..7, inside the N-1 history) or straddle the kernel block
          // (kBlock-3 .. kBlock+3), so block and history boundaries land
          // at varying offsets.
          sf.reset();
          std::vector<i64> chunked;
          chunked.reserve(x.size());
          std::size_t at = 0;
          while (at < x.size()) {
            const std::size_t len =
                rng.next_below(2) == 0
                    ? 1 + rng.next_below(7)
                    : exec::ExecEngine::kBlock - 3 + rng.next_below(7);
            const std::size_t take = std::min<std::size_t>(x.size() - at, len);
            const std::vector<i64> part(
                x.begin() + static_cast<std::ptrdiff_t>(at),
                x.begin() + static_cast<std::ptrdiff_t>(at + take));
            const std::vector<i64> out = sf.push(part);
            chunked.insert(chunked.end(), out.begin(), out.end());
            at += take;
          }
          if (auto m = core::stream_mismatch(expect, chunked,
                                             "exec chunked push")) {
            fail(oracle, *m);
          }
          break;
        }
        case Oracle::kXform: {
          // Pass-off-vs-pass-on equivalence: when the case ran the e-graph
          // pass, the rewritten plan must not cost more adders than the
          // driver's, and both must lower to stream-identical filters.
          if (!pass_on) break;
          if (plan.analytic_adders > pre_pass.analytic_adders) {
            fail(oracle,
                 str_format("pass made the plan worse: %d adders vs %d",
                            plan.analytic_adders, pre_pass.analytic_adders));
            break;
          }
          arch::MultiplierBlock pre_block = core::lower_plan(bank, pre_pass);
          const arch::TdfFilter pre_filter = core::expand_block_to_tdf(
              c.coefficients, c.align, std::move(pre_block));
          Rng rng(stimulus_seed ^ 0x580A4F580A4F580AULL);
          const std::vector<i64> x =
              sim::uniform_stream(rng, config.sim_samples, c.input_bits);
          if (auto m = core::stream_mismatch(pre_filter.run(x),
                                             lowered_filter().run(x),
                                             "pass-on vs pass-off")) {
            fail(oracle, *m);
          }
          break;
        }
      }
    } catch (const Error& e) {
      fail(oracle, str_format("pipeline threw: %s", e.what()));
    }
    out.oracle_ns[oi] += now_ns() - t0;
    if (!out.passed) return out;
  }
  return out;
}

FuzzCase shrink_case(const FuzzCase& failing, const FuzzConfig& config,
                     std::size_t* evals_out) {
  std::size_t evals = 0;
  const auto still_fails = [&](const FuzzCase& candidate) {
    if (evals >= config.shrink_budget) return false;
    ++evals;
    return !run_case(candidate, config).passed;
  };
  const auto has_nonzero = [](const std::vector<i64>& v) {
    for (const i64 x : v) {
      if (x != 0) return true;
    }
    return false;
  };

  FuzzCase best = failing;
  bool improved = true;
  while (improved && evals < config.shrink_budget) {
    improved = false;
    const std::size_t n = best.coefficients.size();

    // 1. Drop one coefficient (strongest reduction first).
    for (std::size_t i = 0; i < n && n > 1; ++i) {
      FuzzCase candidate = best;
      candidate.coefficients.erase(candidate.coefficients.begin() +
                                   static_cast<std::ptrdiff_t>(i));
      if (!candidate.align.empty()) {
        candidate.align.erase(candidate.align.begin() +
                              static_cast<std::ptrdiff_t>(i));
      }
      if (!has_nonzero(candidate.coefficients)) continue;
      if (still_fails(candidate)) {
        best = std::move(candidate);
        improved = true;
        break;
      }
    }
    if (improved) continue;

    // 2. Drop the alignment vector entirely.
    if (!best.align.empty()) {
      FuzzCase candidate = best;
      candidate.align.clear();
      if (still_fails(candidate)) {
        best = std::move(candidate);
        improved = true;
        continue;
      }
    }

    // 3. Zero one coefficient outright.
    for (std::size_t i = 0; i < n; ++i) {
      if (best.coefficients[i] == 0) continue;
      FuzzCase candidate = best;
      candidate.coefficients[i] = 0;
      if (!has_nonzero(candidate.coefficients)) continue;
      if (still_fails(candidate)) {
        best = std::move(candidate);
        improved = true;
        break;
      }
    }
    if (improved) continue;

    // 4. Halve one magnitude.
    for (std::size_t i = 0; i < n; ++i) {
      if (best.coefficients[i] == 0 || best.coefficients[i] == 1 ||
          best.coefficients[i] == -1) {
        continue;
      }
      FuzzCase candidate = best;
      candidate.coefficients[i] /= 2;
      if (!has_nonzero(candidate.coefficients)) continue;
      if (still_fails(candidate)) {
        best = std::move(candidate);
        improved = true;
        break;
      }
    }
    if (improved) continue;

    // 5. Clear the lowest set bit of one magnitude.
    for (std::size_t i = 0; i < n; ++i) {
      const i64 v = best.coefficients[i];
      if (popcount_abs(v) < 2) continue;
      const u64 mag = abs_u64(v);
      const u64 cleared = mag & (mag - 1);
      FuzzCase candidate = best;
      candidate.coefficients[i] =
          v < 0 ? -static_cast<i64>(cleared) : static_cast<i64>(cleared);
      if (still_fails(candidate)) {
        best = std::move(candidate);
        improved = true;
        break;
      }
    }
    if (improved) continue;

    // 6. Zero one alignment shift.
    for (std::size_t i = 0; i < best.align.size(); ++i) {
      if (best.align[i] == 0) continue;
      FuzzCase candidate = best;
      candidate.align[i] = 0;
      if (still_fails(candidate)) {
        best = std::move(candidate);
        improved = true;
        break;
      }
    }
  }
  if (evals_out != nullptr) *evals_out = evals;
  return best;
}

std::string replay_command(const FuzzCase& c) {
  std::string cmd = "mrpf_fuzz --bank " + join_i64(c.coefficients);
  bool any_align = false;
  for (const int a : c.align) any_align = any_align || a != 0;
  if (any_align) cmd += " --align " + join_int(c.align);
  cmd += " --scheme " + core::to_string(c.scheme);
  cmd += str_format(" --input-bits %d", c.input_bits);
  cmd += core::to_flags(c.options);
  if (c.inject != FaultKind::kNone) {
    cmd += " --inject " + to_string(c.inject);
  }
  return cmd;
}

FuzzReport run_fuzz(const FuzzConfig& config) {
  FuzzReport report;
  report.seed = config.seed;
  const std::uint64_t run_start = now_ns();
  for (std::size_t i = 0; i < config.cases; ++i) {
    if (config.time_budget_ms > 0) {
      const std::int64_t elapsed_ms =
          static_cast<std::int64_t>((now_ns() - run_start) / 1000000ULL);
      if (elapsed_ms >= config.time_budget_ms) {
        report.time_budget_exhausted = true;
        break;
      }
    }
    FuzzCase c = generate_case(config.seed, i, config.schemes);
    c.inject = config.inject;
    if (config.force_xform && !c.options.passes.xform) {
      c.options.passes.xform = true;
      c.options.passes.xform_budget =
          kXformFuzzBudgets[case_hash(c) % 3];
    }

    const std::uint64_t t0 = now_ns();
    const CaseResult result = run_case(c, config);
    const std::uint64_t case_ns = now_ns() - t0;

    ++report.cases_run;
    SchemeStats& scheme_stats =
        report.per_scheme[static_cast<std::size_t>(c.scheme)];
    ++scheme_stats.cases;
    scheme_stats.ns += case_ns;
    for (const Oracle o : all_oracles()) {
      const std::size_t oi = oracle_index(o);
      if (!config.oracles[oi]) continue;
      // An oracle ran iff the case reached it: every enabled oracle on a
      // pass, the prefix up to the failing oracle otherwise.
      const bool ran =
          result.passed || oi <= oracle_index(result.failure->oracle);
      if (!ran) continue;
      ++report.per_oracle[oi].runs;
      report.per_oracle[oi].ns += result.oracle_ns[oi];
    }
    if (result.passed) continue;

    ++report.failures;
    ++scheme_stats.failures;
    ++report.per_oracle[oracle_index(result.failure->oracle)].failures;

    FuzzFailure failure;
    failure.case_index = i;
    failure.original = c;
    failure.shrunk = shrink_case(c, config, &failure.shrink_evals);
    const CaseResult shrunk_result = run_case(failure.shrunk, config);
    failure.failure =
        shrunk_result.failure.value_or(*result.failure);  // belt and braces
    failure.replay = replay_command(failure.shrunk);
    report.failure_detail.push_back(std::move(failure));
  }
  report.total_ns = now_ns() - run_start;
  return report;
}

std::string FuzzReport::to_json() const {
  std::string out = "{\n";
  out += str_format("  \"seed\": %llu,\n",
                    static_cast<unsigned long long>(seed));
  out += str_format("  \"cases_run\": %llu,\n",
                    static_cast<unsigned long long>(cases_run));
  out += str_format("  \"failures\": %llu,\n",
                    static_cast<unsigned long long>(failures));
  out += str_format("  \"time_budget_exhausted\": %s,\n",
                    time_budget_exhausted ? "true" : "false");
  out += str_format("  \"total_ms\": %s,\n",
                    io::json_double(static_cast<double>(total_ns) / 1e6)
                        .c_str());
  out += "  \"per_scheme\": {\n";
  for (int s = 0; s < core::kNumSchemes; ++s) {
    const SchemeStats& stats = per_scheme[static_cast<std::size_t>(s)];
    out += str_format(
        "    %s: {\"cases\": %llu, \"failures\": %llu, \"ms\": %s}%s\n",
        io::json_quote(core::to_string(core::all_schemes()[
            static_cast<std::size_t>(s)])).c_str(),
        static_cast<unsigned long long>(stats.cases),
        static_cast<unsigned long long>(stats.failures),
        io::json_double(static_cast<double>(stats.ns) / 1e6).c_str(),
        s + 1 < core::kNumSchemes ? "," : "");
  }
  out += "  },\n";
  out += "  \"per_oracle\": {\n";
  for (int o = 0; o < kNumOracles; ++o) {
    const OracleStats& stats = per_oracle[static_cast<std::size_t>(o)];
    out += str_format(
        "    %s: {\"runs\": %llu, \"failures\": %llu, \"ms\": %s}%s\n",
        io::json_quote(to_string(all_oracles()[static_cast<std::size_t>(o)]))
            .c_str(),
        static_cast<unsigned long long>(stats.runs),
        static_cast<unsigned long long>(stats.failures),
        io::json_double(static_cast<double>(stats.ns) / 1e6).c_str(),
        o + 1 < kNumOracles ? "," : "");
  }
  out += "  },\n";
  out += "  \"failures_detail\": [";
  for (std::size_t i = 0; i < failure_detail.size(); ++i) {
    const FuzzFailure& f = failure_detail[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    out += str_format("\"case\": %llu, ",
                      static_cast<unsigned long long>(f.case_index));
    out += str_format("\"scheme\": %s, ",
                      io::json_quote(core::to_string(f.shrunk.scheme)).c_str());
    out += str_format("\"oracle\": %s, ",
                      io::json_quote(to_string(f.failure.oracle)).c_str());
    out += str_format("\"detail\": %s,\n     ",
                      io::json_quote(f.failure.detail).c_str());
    out += str_format("\"bank\": %s, ",
                      json_i64_array(f.original.coefficients).c_str());
    out += str_format("\"shrunk_bank\": %s, ",
                      json_i64_array(f.shrunk.coefficients).c_str());
    out += str_format("\"shrink_evals\": %llu,\n     ",
                      static_cast<unsigned long long>(f.shrink_evals));
    out += str_format("\"replay\": %s}", io::json_quote(f.replay).c_str());
  }
  out += failure_detail.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace mrpf::verify
