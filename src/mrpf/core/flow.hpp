// High-level synthesis flow: one entry point per optimization scheme, from
// a quantized coefficient bank down to a verified TDF filter. This is the
// API the examples and benches drive.
#pragma once

#include <vector>

#include "mrpf/arch/tdf.hpp"
#include "mrpf/core/mrp.hpp"
#include "mrpf/core/scheme.hpp"
#include "mrpf/core/synth_plan.hpp"
#include "mrpf/number/quantize.hpp"

namespace mrpf::core {

/// Optimization outcome over one constant bank (move-only: the plan's MRP
/// provenance owns its recursive SEED levels).
struct SchemeResult {
  Scheme scheme = Scheme::kSimple;
  /// The paper's complexity metric: multiplier-block adders, analytic
  /// (== plan.analytic_adders).
  int multiplier_adders = 0;
  /// Verified physical block over the bank, lowered from `plan` through
  /// the one shared lowering path (graph adders can be lower than the
  /// analytic count when values share structure incidentally).
  arch::MultiplierBlock block;
  /// The scheme-agnostic plan the block was lowered from: ops, taps,
  /// provenance (plan.mrp for kMrp/kMrpCse, plan.cse for kCse) and the
  /// unified stage timers (plan.timers.optimize / .lowering for every
  /// scheme; the MRP stage-A breakdown in the remaining samples).
  SynthPlan plan;
};

/// Optimizes a constant bank (no folding applied here). Dispatches
/// through the SchemeDriver registry: cache probe (options.cache /
/// options.cache_path — every scheme is cached, not just MRP), driver
/// optimize on a miss, shared lowering.
SchemeResult optimize_bank(const std::vector<i64>& bank, Scheme scheme,
                           const MrpOptions& options = {});

/// optimize_bank with service provenance (SolveInfo, core/mrp.hpp)
/// reported through `info` (ignored when null). Results are bit-identical
/// to the 3-arg overload.
SchemeResult optimize_bank(const std::vector<i64>& bank, Scheme scheme,
                           const MrpOptions& options, SolveInfo* info);

/// Batch front-end over independent banks: solves fan out through one
/// thread pool (thread count from MRPF_THREADS) for every scheme. With a
/// cache live, equivalent banks dedup to one live solve per batch through
/// the cache's single-flight get_or_compute. results[i] is identical to a
/// serial optimize_bank(banks[i], ...) regardless of thread count.
std::vector<SchemeResult> optimize_bank_batch(
    const std::vector<std::vector<i64>>& banks, Scheme scheme,
    const MrpOptions& options = {});

/// Builds a complete, bit-exact TDF filter for the coefficient vector.
/// Symmetric vectors are folded first (the multiplier block covers the
/// unique half); `align` are per-tap alignment shifts (maximal scaling).
/// This solves optimization_bank(coefficients); a caller that already
/// holds the SchemeResult for that bank expands its block with
/// expand_block_to_tdf instead of solving again.
arch::TdfFilter build_tdf(const std::vector<i64>& coefficients,
                          const std::vector<int>& align, Scheme scheme,
                          const MrpOptions& options = {});

/// Convenience overload: quantized coefficients carry their own alignment.
arch::TdfFilter build_tdf(const number::QuantizedCoefficients& q,
                          Scheme scheme, const MrpOptions& options = {});

/// Alignment shifts of a quantized bank (max scale − per-tap scale).
std::vector<int> alignment_of(const number::QuantizedCoefficients& q);

/// Expands a multiplier block built over optimization_bank(coefficients)
/// back onto every tap position (mirroring taps for a folded symmetric
/// vector) and wraps it into a TdfFilter. This is the tail of build_tdf,
/// exposed so callers that already hold a lowered block — the verify
/// fuzzing harness lowers plans it may have deliberately corrupted — go
/// through the exact same expansion the production flow uses. Throws when
/// the block's taps do not realize the coefficients.
arch::TdfFilter expand_block_to_tdf(const std::vector<i64>& coefficients,
                                    const std::vector<int>& align,
                                    arch::MultiplierBlock block);

/// The bank a scheme optimizes for a coefficient vector: the folded unique
/// half when symmetric, the full vector otherwise.
std::vector<i64> optimization_bank(const std::vector<i64>& coefficients);

}  // namespace mrpf::core
