#include "mrpf/core/flow.hpp"

#include <algorithm>
#include <utility>

#include "mrpf/common/error.hpp"
#include "mrpf/common/parallel.hpp"
#include "mrpf/core/pass_manager.hpp"
#include "mrpf/core/scheme_driver.hpp"
#include "mrpf/filter/symmetric.hpp"

namespace mrpf::core {

namespace {

/// One (bank, scheme, options) synthesis through the unified pipeline:
/// single-flight cache lookup → driver optimize → plan passes (the e-graph
/// rewriter, when enabled) → the one shared lowering path. This is the
/// only place a solve meets the cache: drivers and mrp_optimize never
/// probe it, so a solve costs one lookup. `options` must already be the
/// driver's canonical options. Passes run inside the cached computation,
/// so cached plans are post-pass and a hit rehydrates the rewritten plan
/// bit-identically. On a hit the plan's optimize/stage
/// timers travel from the original solve; the lowering sample is always
/// from this call.
SchemeResult solve_and_lower(const std::vector<i64>& bank,
                             const SchemeDriver& driver,
                             const MrpOptions& options,
                             SolveInfo* info = nullptr) {
  const auto compute = [&] {
    StageSample optimize;
    SynthPlan plan;
    {
      const StageStopwatch watch(optimize);
      plan = driver.optimize(bank, options);
    }
    optimize.items = static_cast<std::uint64_t>(bank.size());
    plan.timers.optimize = optimize;
    apply_plan_passes(bank, options, plan);
    return plan;
  };
  SchemeResult out;
  out.scheme = driver.scheme();
  SynthPlan plan;
  if (options.cache != nullptr) {
    plan = options.cache->get_or_compute(bank, out.scheme, options, compute,
                                         info);
  } else {
    plan = compute();
    if (info != nullptr) *info = SolveInfo{};
  }
  StageSample lowering;
  {
    const StageStopwatch watch(lowering);
    out.block = lower_plan(bank, plan);
  }
  lowering.items = static_cast<std::uint64_t>(plan.ops.size());
  plan.timers.lowering = lowering;
  out.multiplier_adders = plan.analytic_adders;
  out.plan = std::move(plan);
  return out;
}

}  // namespace

SchemeResult optimize_bank(const std::vector<i64>& bank, Scheme scheme,
                           const MrpOptions& options) {
  return optimize_bank(bank, scheme, options, nullptr);
}

SchemeResult optimize_bank(const std::vector<i64>& bank, Scheme scheme,
                           const MrpOptions& options, SolveInfo* info) {
  const SchemeDriver& driver = scheme_driver(scheme);
  return solve_and_lower(bank, driver, driver.canonicalize(options), info);
}

std::vector<SchemeResult> optimize_bank_batch(
    const std::vector<std::vector<i64>>& banks, Scheme scheme,
    const MrpOptions& options) {
  const SchemeDriver& driver = scheme_driver(scheme);
  std::vector<SchemeResult> results(banks.size());
  ThreadPool pool;  // one pool for every stage of the batch
  MrpOptions eff = driver.canonicalize(options);
  // Inner stages (the MRP color-graph/set-cover shards) reuse the fan-out
  // pool — nesting is safe and workers that run out of solves steal inner
  // shards. Schemes without intra-solve parallelism simply ignore it.
  eff.pool = &pool;
  pool.parallel_for(banks.size(), [&](std::size_t i) {
    results[i] = solve_and_lower(banks[i], driver, eff);
  });
  return results;
}

std::vector<i64> optimization_bank(const std::vector<i64>& coefficients) {
  if (filter::is_symmetric(coefficients)) {
    return filter::folded_half(coefficients);
  }
  return coefficients;
}

std::vector<int> alignment_of(const number::QuantizedCoefficients& q) {
  int smax = 0;
  for (const auto& c : q.coeffs) smax = std::max(smax, c.scale_log2);
  std::vector<int> align;
  align.reserve(q.coeffs.size());
  for (const auto& c : q.coeffs) align.push_back(smax - c.scale_log2);
  return align;
}

arch::TdfFilter expand_block_to_tdf(const std::vector<i64>& coefficients,
                                    const std::vector<int>& align,
                                    arch::MultiplierBlock block) {
  MRPF_CHECK(!coefficients.empty(),
             "expand_block_to_tdf: empty coefficient vector");
  const std::size_t n = coefficients.size();
  const std::size_t folded = block.taps.size();
  MRPF_CHECK(folded == n || folded == (n + 1) / 2,
             "expand_block_to_tdf: block does not cover the coefficients");

  // Expand the folded block back onto every tap position.
  arch::MultiplierBlock full;
  full.graph = std::move(block.graph);
  full.constants = coefficients;
  full.taps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t folded_index = folded == n ? i : std::min(i, n - 1 - i);
    arch::Tap tap = block.taps[folded_index];
    MRPF_CHECK(tap.constant == coefficients[i],
               "expand_block_to_tdf: folded tap does not match mirrored "
               "coefficient");
    full.taps.push_back(tap);
  }
  return arch::TdfFilter(coefficients, align, std::move(full));
}

arch::TdfFilter build_tdf(const std::vector<i64>& coefficients,
                          const std::vector<int>& align, Scheme scheme,
                          const MrpOptions& options) {
  MRPF_CHECK(!coefficients.empty(), "build_tdf: empty coefficient vector");
  const std::vector<i64> bank = optimization_bank(coefficients);
  SchemeResult opt = optimize_bank(bank, scheme, options);
  return expand_block_to_tdf(coefficients, align, std::move(opt.block));
}

arch::TdfFilter build_tdf(const number::QuantizedCoefficients& q,
                          Scheme scheme, const MrpOptions& options) {
  return build_tdf(q.values(), alignment_of(q), scheme, options);
}

}  // namespace mrpf::core
