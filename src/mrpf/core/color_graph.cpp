#include "mrpf/core/color_graph.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <numeric>
#include <utility>

#include "mrpf/common/error.hpp"
#include "mrpf/common/parallel.hpp"
#include "mrpf/core/sidc.hpp"

namespace mrpf::core {

namespace {

/// Shared validation + l_max resolution for both builders. Returns l_max.
int prepare(const std::vector<i64>& primaries,
            const ColorGraphOptions& options) {
  const int n = static_cast<int>(primaries.size());
  for (int v = 0; v < n; ++v) {
    MRPF_CHECK(primaries[static_cast<std::size_t>(v)] > 0 &&
                   primaries[static_cast<std::size_t>(v)] % 2 == 1,
               "color graph: vertices must be positive odd primaries");
    MRPF_CHECK(v == 0 || primaries[static_cast<std::size_t>(v)] >
                             primaries[static_cast<std::size_t>(v) - 1],
               "color graph: vertices must be sorted and unique");
  }

  int l_max = options.l_max;
  if (l_max < 0) {
    l_max = 1;
    for (const i64 p : primaries) l_max = std::max(l_max, bit_width_abs(p));
    l_max = std::min(l_max, 24);
  }
  MRPF_CHECK(l_max >= 0 && l_max <= 40, "color graph: l_max out of range");
  // `ci << l` must stay inside i64 (and ξ = cj ± ci·2^l inside 2^63).
  for (const i64 p : primaries) {
    MRPF_CHECK(bit_width_abs(p) + l_max < 63,
               "color graph: primary << l_max would overflow i64");
  }
  return l_max;
}

SidcEdge make_edge(int i, int j, int l, bool pred_negate, i64 xi) {
  const ShiftSign d = decompose(xi);
  SidcEdge e;
  e.from = i;
  e.to = j;
  e.l = l;
  e.pred_negate = pred_negate;
  e.xi = xi;
  e.color = d.primary;
  e.color_shift = d.shift;
  e.color_negate = d.negate;
  return e;
}

/// Enumerates the edges of primary rows [row_begin, row_end) in canonical
/// order (i outer, j inner, then l, then σ) into `out`, which must have
/// room for exactly (row_end - row_begin) · 2·(l_max+1)·(n−1) edges. Both
/// the serial builder (one shard covering every row) and the sharded
/// builder (disjoint row blocks at closed-form offsets) use this, so the
/// concatenated edge order is identical by construction.
void enumerate_rows(const std::vector<i64>& primaries, int l_max,
                    int row_begin, int row_end, SidcEdge* out) {
  const int n = static_cast<int>(primaries.size());
  for (int i = row_begin; i < row_end; ++i) {
    const i64 ci = primaries[static_cast<std::size_t>(i)];
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const i64 cj = primaries[static_cast<std::size_t>(j)];
      for (int l = 0; l <= l_max; ++l) {
        const i64 shifted = ci << l;
        for (const bool pred_negate : {false, true}) {
          const i64 xi = cj - (pred_negate ? -shifted : shifted);
          // ξ == 0 would mean cj is a shift of ci — impossible between
          // distinct primaries — so every edge carries a real color.
          MRPF_CHECK(xi != 0, "color graph: zero differential");
          *out++ = make_edge(i, j, l, pred_negate, xi);
        }
      }
    }
  }
}

/// One edge in the color grouping, carrying the fields class slicing
/// reads so it never goes back to the (much larger) edge records.
struct KeyedEdge {
  i64 color = 0;
  int index = 0;  // into ColorGraph::edges
  int to = 0;     // target vertex
};

/// Groups the edges by color: ascending color, ties in enumeration order,
/// i.e. the unique (color, index) order. One stable LSD radix sort on the
/// color alone: each counting pass keeps the previous order within a
/// bucket, so enumeration order carries through every pass and the index
/// needs no key digits of its own. Colors are odd, so their always-set low
/// bit is dropped, and a digit that every key shares is skipped.
std::vector<KeyedEdge> group_by_color(const std::vector<SidcEdge>& edges) {
  constexpr int kDigitBits = 11;
  constexpr u64 kMask = (u64{1} << kDigitBits) - 1;
  const std::size_t e = edges.size();
  std::vector<KeyedEdge> keyed(e);
  u64 max_key = 0;
  for (std::size_t ei = 0; ei < e; ++ei) {
    keyed[ei] = {edges[ei].color, static_cast<int>(ei), edges[ei].to};
    max_key = std::max(max_key, static_cast<u64>(edges[ei].color) >> 1);
  }
  std::vector<KeyedEdge> scratch(e);
  std::vector<std::size_t> bucket(kMask + 1);
  const int key_bits = static_cast<int>(std::bit_width(max_key));
  for (int shift = 0; shift < key_bits; shift += kDigitBits) {
    const auto digit = [shift](const KeyedEdge& k) {
      return static_cast<std::size_t>(
          ((static_cast<u64>(k.color) >> 1) >> shift) & kMask);
    };
    std::fill(bucket.begin(), bucket.end(), 0);
    for (const KeyedEdge& k : keyed) ++bucket[digit(k)];
    if (bucket[digit(keyed[0])] == e) continue;
    std::exclusive_scan(bucket.begin(), bucket.end(), bucket.begin(),
                        std::size_t{0});
    for (const KeyedEdge& k : keyed) scratch[bucket[digit(k)]++] = k;
    keyed.swap(scratch);
  }
  return keyed;
}

/// Slices the color-grouped edges into classes: boundary scan, per-class
/// cost, bulk class_edges copy, and the deduped coverable-target pool. `pool` (nullable) parallelizes the per-class
/// work; the output is identical either way because every class is
/// processed independently and compaction runs in class order.
void slice_classes(ColorGraph& g, const std::vector<KeyedEdge>& keyed,
                   const ColorGraphOptions& options, ThreadPool* pool) {
  const std::size_t e = keyed.size();
  g.class_edges.resize(e);
  // Boundary scan: one class per maximal run of equal colors, counted
  // first so the class array is allocated once.
  std::size_t runs = e > 0 ? 1 : 0;
  for (std::size_t k = 1; k < e; ++k) {
    runs += static_cast<std::size_t>(keyed[k].color != keyed[k - 1].color);
  }
  g.classes.clear();
  g.classes.reserve(runs);
  for (std::size_t lo = 0; lo < e;) {
    std::size_t hi = lo;
    while (hi < e && keyed[hi].color == keyed[lo].color) ++hi;
    ColorClass cls;
    cls.color = keyed[lo].color;
    cls.edges_begin = static_cast<int>(lo);
    cls.edges_end = static_cast<int>(hi);
    g.classes.push_back(cls);
    lo = hi;
  }

  // Per-class work: cost, the edge-id slice, and the deduped target list.
  // Targets land in a scratch pool at the class's edges_begin offset (an
  // exact upper bound on the deduped size), then compact in class order.
  std::vector<int> scratch(e);
  std::vector<int> cov_count(g.classes.size());
  const auto fill_class = [&](std::size_t c) {
    ColorClass& cls = g.classes[c];
    cls.cost = number::nonzero_digits(cls.color, options.rep);
    const std::size_t lo = static_cast<std::size_t>(cls.edges_begin);
    const std::size_t hi = static_cast<std::size_t>(cls.edges_end);
    for (std::size_t k = lo; k < hi; ++k) {
      g.class_edges[k] = keyed[k].index;
      scratch[k] = keyed[k].to;
    }
    std::sort(scratch.begin() + static_cast<std::ptrdiff_t>(lo),
              scratch.begin() + static_cast<std::ptrdiff_t>(hi));
    const auto last =
        std::unique(scratch.begin() + static_cast<std::ptrdiff_t>(lo),
                    scratch.begin() + static_cast<std::ptrdiff_t>(hi));
    cov_count[c] = static_cast<int>(
        last - (scratch.begin() + static_cast<std::ptrdiff_t>(lo)));
  };
  if (pool != nullptr && pool->size() > 1 && g.classes.size() > 1) {
    // Contiguous class blocks, one parallel index per block: coarse grain,
    // deterministic because every class writes only its own slice.
    const std::size_t blocks =
        std::min<std::size_t>(g.classes.size(),
                              static_cast<std::size_t>(pool->size()) * 4);
    pool->parallel_for(blocks, [&](std::size_t b) {
      const std::size_t lo = g.classes.size() * b / blocks;
      const std::size_t hi = g.classes.size() * (b + 1) / blocks;
      for (std::size_t c = lo; c < hi; ++c) fill_class(c);
    });
  } else {
    for (std::size_t c = 0; c < g.classes.size(); ++c) fill_class(c);
  }

  // Compaction: exclusive prefix sum of deduped sizes, then bulk copies.
  std::size_t total = 0;
  for (std::size_t c = 0; c < g.classes.size(); ++c) {
    g.classes[c].cov_begin = static_cast<int>(total);
    total += static_cast<std::size_t>(cov_count[c]);
    g.classes[c].cov_end = static_cast<int>(total);
  }
  g.class_coverable.resize(total);
  for (std::size_t c = 0; c < g.classes.size(); ++c) {
    const ColorClass& cls = g.classes[c];
    std::copy_n(scratch.begin() + cls.edges_begin,
                cls.num_coverable(),
                g.class_coverable.begin() + cls.cov_begin);
  }
}

}  // namespace

int ColorGraph::class_of(i64 color) const {
  const auto it = std::lower_bound(
      classes.begin(), classes.end(), color,
      [](const ColorClass& cls, i64 c) { return cls.color < c; });
  if (it == classes.end() || it->color != color) return -1;
  return static_cast<int>(it - classes.begin());
}

ColorGraph build_color_graph(const std::vector<i64>& primaries,
                             const ColorGraphOptions& options,
                             ThreadPool* pool) {
  ColorGraph g;
  g.vertices = primaries;
  const int n = static_cast<int>(primaries.size());
  const int l_max = prepare(primaries, options);
  g.l_max = l_max;

  // Flat scheme: enumerate every edge into one exactly-sized contiguous
  // vector, radix-group an index permutation by canonical color, and slice
  // the runs into classes — no per-edge node allocation, no tree walk. With
  // a pool, rows shard across workers: row i contributes exactly
  // 2·(l_max+1)·(n−1) edges, so every shard writes a disjoint slice at a
  // closed-form offset and the concatenation equals the serial order.
  const std::size_t row_stride = 2u * static_cast<std::size_t>(l_max + 1) *
                                 static_cast<std::size_t>(n > 0 ? n - 1 : 0);
  const std::size_t num_edges = static_cast<std::size_t>(n) * row_stride;
  g.edges.resize(num_edges);
  const bool sharded =
      pool != nullptr && pool->size() > 1 && n > 1 && num_edges >= 1024;
  const std::size_t shards =
      sharded ? std::min<std::size_t>(static_cast<std::size_t>(n),
                                      static_cast<std::size_t>(pool->size()) * 4)
              : 1;
  if (sharded) {
    pool->parallel_for(shards, [&](std::size_t s) {
      const int r0 = static_cast<int>(static_cast<std::size_t>(n) * s / shards);
      const int r1 =
          static_cast<int>(static_cast<std::size_t>(n) * (s + 1) / shards);
      enumerate_rows(primaries, l_max, r0, r1,
                     g.edges.data() + static_cast<std::size_t>(r0) * row_stride);
    });
  } else {
    enumerate_rows(primaries, l_max, 0, n, g.edges.data());
  }

  const std::vector<KeyedEdge> keyed = group_by_color(g.edges);
  slice_classes(g, keyed, options, sharded ? pool : nullptr);
  return g;
}

ColorGraph build_color_graph_reference(const std::vector<i64>& primaries,
                                       const ColorGraphOptions& options) {
  ColorGraph g;
  g.vertices = primaries;
  const int n = static_cast<int>(primaries.size());
  const int l_max = prepare(primaries, options);
  g.l_max = l_max;

  // Enumerate the 2·(l_max+1)·n·(n−1) SIDC edges, grouping by color in a
  // std::map with a dynamically grown edge list per class — the seed
  // scheme, one tree node plus vector per color.
  std::map<i64, std::vector<int>> grouped;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const i64 ci = primaries[static_cast<std::size_t>(i)];
      const i64 cj = primaries[static_cast<std::size_t>(j)];
      for (int l = 0; l <= l_max; ++l) {
        const i64 shifted = ci << l;
        for (const bool pred_negate : {false, true}) {
          const i64 xi = cj - (pred_negate ? -shifted : shifted);
          MRPF_CHECK(xi != 0, "color graph: zero differential");
          const SidcEdge e = make_edge(i, j, l, pred_negate, xi);
          grouped[e.color].push_back(static_cast<int>(g.edges.size()));
          g.edges.push_back(e);
        }
      }
    }
  }

  // Flatten into the slice layout (map iteration is already color-sorted).
  g.classes.reserve(grouped.size());
  for (const auto& [color, edge_ids] : grouped) {
    ColorClass cls;
    cls.color = color;
    cls.cost = number::nonzero_digits(color, options.rep);
    cls.edges_begin = static_cast<int>(g.class_edges.size());
    cls.cov_begin = static_cast<int>(g.class_coverable.size());
    std::vector<int> targets;
    targets.reserve(edge_ids.size());
    for (const int ei : edge_ids) {
      g.class_edges.push_back(ei);
      targets.push_back(g.edges[static_cast<std::size_t>(ei)].to);
    }
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()),
                  targets.end());
    for (const int t : targets) g.class_coverable.push_back(t);
    cls.edges_end = static_cast<int>(g.class_edges.size());
    cls.cov_end = static_cast<int>(g.class_coverable.size());
    g.classes.push_back(cls);
  }
  return g;
}

}  // namespace mrpf::core
