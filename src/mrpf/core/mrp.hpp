// The MRP optimizer (paper §3): greedy weighted-minimum-set-cover over
// color classes, spanning-arborescence construction with minimum tree
// height (APSP/BFS root selection) and optional depth constraint, SEED
// extraction, and the two SEED-network refinements of §4 — CSE and
// recursive MRP.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "mrpf/core/color_graph.hpp"
#include "mrpf/core/scheme.hpp"
#include "mrpf/core/sidc.hpp"
#include "mrpf/core/solve_spec.hpp"
#include "mrpf/core/stage_timers.hpp"
#include "mrpf/cse/hartley.hpp"
#include "mrpf/number/repr.hpp"

namespace mrpf {
class ThreadPool;
}

namespace mrpf::core {

class SolveCacheHook;

/// The options of one solve: the result-relevant SolveSpec plus session
/// plumbing that changes wall time, never a result field.
struct MrpOptions : SolveSpec {
  /// The result-relevant fields alone.
  SolveSpec& spec() { return *this; }
  const SolveSpec& spec() const { return *this; }

  /// Route stage A through the pre-optimization reference kernels
  /// (map-based color graph, full-rescan set cover and root selection).
  /// Differential testing and perf baselines only — the result is
  /// bit-identical either way, just slower.
  bool use_reference_engine = false;
  /// Intra-solve parallelism: when non-null, the color-graph build and the
  /// set-cover seeding shard their work across this pool. The result is
  /// bit-identical to pool == nullptr for every pool size (see
  /// color_graph.hpp / set_cover.hpp); only wall time changes. Nested use
  /// is safe — mrp_optimize_batch hands its own fan-out pool down here and
  /// the pool runs nested loops inline with work stealing. Borrowed, never
  /// owned; must outlive the call.
  ThreadPool* pool = nullptr;
  /// The solve cache (cache::SolveCache): core::optimize_bank /
  /// optimize_bank_batch probe it once per solve (see core/flow.hpp), and
  /// a hit is field-for-field identical to the fresh solve (timers
  /// excepted), so results never depend on cache state. mrp_optimize
  /// ignores it. Must be thread-safe (the batch runners share it across
  /// workers). Borrowed, never owned.
  SolveCacheHook* cache = nullptr;
};

/// One committed computation-order edge: child = σ·(parent<<L) ± ξ.
struct TreeEdge {
  SidcEdge edge;
  int depth = 0;  // of edge.to within its tree
};

struct MrpResult {
  PrimaryBank bank;
  std::vector<i64> vertices;        // primary coefficients (== bank.primaries)
  std::vector<i64> solution_colors; // selected color classes, pick order
  std::vector<int> roots;           // vertex ids, in creation order
  std::vector<bool> root_is_free;   // value coincides with a solution color
  std::vector<TreeEdge> tree_edges; // parents always precede children
  std::vector<int> vertex_depth;    // -1 only for vertices of an empty bank
  int tree_height = 0;

  /// Colors ∪ root values, deduplicated and sorted: the SEED set.
  std::vector<i64> seed_values;

  /// Adders in the SEED multiplication network (direct, CSE'd, or
  /// recursive, depending on options).
  int seed_adders = 0;
  /// One adder per non-root covered vertex (the overhead add network).
  int overhead_adders = 0;
  int total_adders() const { return seed_adders + overhead_adders; }

  /// Table-1 shape: (#roots, #solution colors).
  int seed_roots() const { return static_cast<int>(roots.size()); }
  int seed_solution_set() const {
    return static_cast<int>(solution_colors.size());
  }

  /// Present when options.cse_on_seed.
  std::optional<cse::CseResult> seed_cse;
  /// Present when options.recursive_levels > 0.
  std::unique_ptr<MrpResult> seed_recursive;

  /// Per-stage wall time + item counts of this solve (always collected;
  /// excluded from bit-identity comparisons — it is observability, not
  /// part of the solution).
  StageTimers timers;

  /// Deep copy (MrpResult is move-only because of seed_recursive). Every
  /// field is duplicated, including nested recursive levels, seed_cse and
  /// timers — the copy compares field-for-field equal to the original.
  MrpResult clone() const;
};

struct SynthPlan;  // core/synth_plan.hpp

/// How a solve was actually served — observability the synthesis daemon
/// surfaces per response (never part of the result: cached == fresh).
struct SolveInfo {
  bool cache_hit = false;  ///< Plan rehydrated from options.cache.
  /// Waited on an equivalent solve another thread was running (implies
  /// cache_hit); the daemon reports it as a coalesced join.
  bool joined = false;
};

/// Cross-solve cache interface consumed by the flow layer. Entries are
/// scheme-tagged SynthPlans, so every scheme shares one cache. The
/// concrete implementation (cache::SolveCache — canonical fingerprinting,
/// sharded in-memory LRU, single-flight solves, optional persistent store)
/// lives in src/mrpf/cache; core only depends on this abstract hook so the
/// dependency points cache → core. All methods must be thread-safe.
class SolveCacheHook {
 public:
  virtual ~SolveCacheHook() = default;

  /// Single-flight solve of (bank, scheme, options), the one mechanism
  /// that stops equivalent banks from being solved twice. A cached
  /// equivalent solve is rehydrated for `bank` (field-for-field identical
  /// to compute(), timers excepted). Otherwise the first caller for the
  /// canonical key runs compute() and publishes its plan; every caller
  /// arriving while it runs waits and builds its own answer from the
  /// published plan, or rethrows the leader's exception. `info` (nullable)
  /// reports how the call was served.
  virtual SynthPlan get_or_compute(const std::vector<i64>& bank,
                                   Scheme scheme, const MrpOptions& options,
                                   const std::function<SynthPlan()>& compute,
                                   SolveInfo* info) = 0;
};

/// Runs MRP stage A + tree construction over a constant bank (typically
/// the folded coefficient half of a symmetric filter). Deterministic. A
/// pure solver: options.cache is ignored — cached solves go through
/// core::optimize_bank with Scheme::kMrp / kMrpCse.
MrpResult mrp_optimize(const std::vector<i64>& constants,
                       const MrpOptions& options = {});

/// One independent solve in a batch: a constant bank with its options.
struct MrpBatchJob {
  std::vector<i64> bank;
  MrpOptions options;
};

/// Fans independent solves out across a thread pool (thread count from
/// MRPF_THREADS, see common/parallel.hpp; options.pool is reused as the
/// fan-out pool when non-null). Every result slot is written only by the
/// worker that claimed it, so results[i] is bit-identical to a serial
/// mrp_optimize(banks[i], options) regardless of thread count. Like
/// mrp_optimize it ignores options.cache; core::optimize_bank_batch is the
/// cached batch front-end.
std::vector<MrpResult> mrp_optimize_batch(
    const std::vector<std::vector<i64>>& banks,
    const MrpOptions& options = {});

/// Per-job options variant (e.g. β sweeps, mixed schemes).
std::vector<MrpResult> mrp_optimize_batch(const std::vector<MrpBatchJob>& jobs);

}  // namespace mrpf::core
