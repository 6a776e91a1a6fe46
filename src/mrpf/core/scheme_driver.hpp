// The scheme registry: one driver per synthesis scheme, each mapping a
// coefficient bank to the shared SynthPlan IR. core::optimize_bank and
// optimize_bank_batch dispatch through this table — no per-scheme switch
// on the optimize/lower/cost path — so a new scheme (ILP, e-graph, …) is
// a drop-in driver that gets caching, batching, timing and RTL export for
// free.
#pragma once

#include <vector>

#include "mrpf/core/mrp.hpp"
#include "mrpf/core/scheme.hpp"
#include "mrpf/core/synth_plan.hpp"

namespace mrpf::core {

class SchemeDriver {
 public:
  virtual ~SchemeDriver() = default;

  /// The scheme this driver implements (its cache namespace).
  virtual Scheme scheme() const = 0;

  /// Normalizes the spec for this scheme: knobs the scheme ignores (e.g.
  /// depth_limit for kSimple) reset to defaults, knobs it forces (e.g. CSD
  /// for kCse/kRagn, cse_on_seed for the MRP pair) are pinned, and unset
  /// budgets resolve. The solve cache keys on the result, so irrelevant
  /// knobs never fragment it and no session field can reach a key.
  virtual SolveSpec canonical_options(const SolveSpec& spec) const = 0;

  /// `options` with its spec canonicalized; the session fields (pool,
  /// cache, reference-engine toggle) pass through untouched.
  MrpOptions canonicalize(const MrpOptions& options) const;

  /// Optimizes the bank into a plan. Deterministic: the plan (timers
  /// excepted) depends only on (bank, canonical options), never on
  /// pool size or cache state.
  virtual SynthPlan optimize(const std::vector<i64>& bank,
                             const MrpOptions& options) const = 0;
};

/// The registry: one immutable driver per scheme, in enum order.
const SchemeDriver& scheme_driver(Scheme scheme);

}  // namespace mrpf::core
