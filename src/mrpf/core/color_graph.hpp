// The SIDC color graph (paper §2–3.2).
//
// Vertices are primary coefficients. For every ordered vertex pair (i, j),
// predecessor shift L ∈ [0, l_max] and predecessor sign σ ∈ {+, −} there is
// a directed edge i→j carrying the differential
//     ξ = c_j − σ·(c_i << L)          (so c_j·x = σ·(c_i·x << L) + ξ·x)
// whose *color* is the primary value of ξ. All edges of one color class
// share a single ξ-multiplier (plus free shifts), which is what the
// weighted-minimum-set-cover stage exploits.
#pragma once

#include <span>
#include <vector>

#include "mrpf/common/bits.hpp"
#include "mrpf/number/repr.hpp"

namespace mrpf {
class ThreadPool;
}

namespace mrpf::core {

struct SidcEdge {
  int from = 0;
  int to = 0;
  int l = 0;               // predecessor shift L
  bool pred_negate = false;  // σ == −1
  i64 xi = 0;              // exact differential (never 0)
  i64 color = 0;           // primary of |xi|
  int color_shift = 0;     // xi == ±(color << color_shift)
  bool color_negate = false;
};

/// One color class. Its edge list and coverable-target list are contiguous
/// slices of ColorGraph::class_edges / ColorGraph::class_coverable — with
/// hundreds of thousands of (mostly singleton) classes per solve, per-class
/// vectors were two heap allocations each and dominated construction time.
/// Use ColorGraph::edge_ids() / coverable_ids() to view the slices.
struct ColorClass {
  i64 color = 0;
  int cost = 0;         // nonzero digits of the color under rep
  int edges_begin = 0;  // slice [edges_begin, edges_end) of class_edges
  int edges_end = 0;
  int cov_begin = 0;    // slice [cov_begin, cov_end) of class_coverable
  int cov_end = 0;

  int num_edges() const { return edges_end - edges_begin; }
  int num_coverable() const { return cov_end - cov_begin; }
};

struct ColorGraph {
  std::vector<i64> vertices;       // primary coefficients
  std::vector<SidcEdge> edges;
  std::vector<ColorClass> classes; // sorted by color value
  std::vector<int> class_edges;     // per-class edge ids, enumeration order
  std::vector<int> class_coverable; // per-class distinct targets, sorted
  int l_max = 0;

  int class_of(i64 color) const;   // index into classes, or -1

  /// Indices into `edges` of one class, in enumeration order.
  std::span<const int> edge_ids(const ColorClass& cls) const {
    return {class_edges.data() + cls.edges_begin,
            static_cast<std::size_t>(cls.num_edges())};
  }
  /// Distinct target vertices of one class, sorted ascending.
  std::span<const int> coverable_ids(const ColorClass& cls) const {
    return {class_coverable.data() + cls.cov_begin,
            static_cast<std::size_t>(cls.num_coverable())};
  }
};

struct ColorGraphOptions {
  /// Max predecessor shift; -1 derives it from the widest primary
  /// (the paper's L ≤ W), capped at 24.
  int l_max = -1;
  number::NumberRep rep = number::NumberRep::kSpt;
};

/// Flat construction: enumerate all edges into one pre-reserved vector,
/// group an index permutation by canonical color with a stable LSD radix
/// sort, slice the runs into contiguous classes. Allocation-light and
/// cache-friendly; the hot path of every `mrp_optimize` call.
///
/// With a non-null `pool`, the edge enumeration shards over row blocks
/// that write disjoint slices at closed-form offsets, and the per-class
/// cost/coverable work fans out over class blocks; the radix grouping runs
/// serially. Every shard writes only its own slice and the grouping is the
/// unique (color, edge index) order, so the result is field-for-field
/// identical to the serial build for every pool size (and to the map
/// reference).
ColorGraph build_color_graph(const std::vector<i64>& primaries,
                             const ColorGraphOptions& options = {},
                             ThreadPool* pool = nullptr);

/// The seed implementation's std::map-based grouping (per-color tree node
/// and dynamically grown edge list), kept for differential tests and as
/// the perf baseline in `bench/perf_mrp_sweep`. Output is field-for-field
/// identical to `build_color_graph`.
ColorGraph build_color_graph_reference(const std::vector<i64>& primaries,
                                       const ColorGraphOptions& options = {});

}  // namespace mrpf::core
