#include "mrpf/exec/compile.hpp"

#include <algorithm>

#include "mrpf/filter/symmetric.hpp"
#include "mrpf/io/json_report.hpp"

namespace mrpf::exec {

namespace {

/// Bits needed to represent the non-negative 128-bit magnitude `v`.
int bit_width_i128(i128 v) {
  int bits = 0;
  while (v > 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

}  // namespace

ExecProgram compile(const arch::TdfFilter& filter) {
  ExecProgram prog;
  {
    core::StageStopwatch watch(prog.timers.exec_compile);
    const arch::MultiplierBlock& block = filter.block();
    const arch::AdderGraph& graph = block.graph;

    // --- Realization proof. The kernel multiplies by the coefficients and
    // never walks the adder graph, so it is the block's semantics only if
    // the graph realizes them. Every AdderOp is (a << sa) ± (b << sb) with
    // sa, sb >= 0, and every tap shifts and negates one node, so each tap
    // output is t_k(x) = g_k · x for a fixed integer g_k (a right-shift tap
    // is exact, hence linear, only when 2^shift divides g_k, which the
    // checked evaluation also enforces). One probe at x = 1 reads off g_k;
    // g_k == c[k] there means t_k(x) == c[k] · x for every x.
    block.verify({1});

    // --- Effective coefficients, folded when palindromic.
    const std::vector<i64>& coeffs = filter.coefficients();
    const std::vector<int>& align = filter.alignment();
    prog.coeffs.resize(coeffs.size());
    i128 tap_sum = 0;
    for (std::size_t k = 0; k < coeffs.size(); ++k) {
      const int sh = align.empty() ? 0 : align[k];
      prog.coeffs[k] = static_cast<i64>(static_cast<u64>(coeffs[k]) << sh);
      tap_sum += static_cast<i128>(abs_u64(coeffs[k])) << sh;
    }
    prog.folded = filter::is_symmetric(prog.coeffs);

    // --- Width analysis: the widest signed input for which every
    // intermediate provably fits int64, so the engine's wrap arithmetic is
    // exact without per-product checks. Bounds (|x| <= 2^(B-1)):
    //   live node values:  |fundamental| * |x|
    //   tap products:      |c[k] << align[k]| * |x|
    //   output partials:   sum over taps of the product bound
    // The kernel itself needs only the last bound, but the live-node term
    // keeps the proven width (and with it every caller's choice between
    // this engine and the checked interpreter) equal to the interpreter's.
    const int n_nodes = graph.num_nodes();
    std::vector<bool> live(static_cast<std::size_t>(n_nodes), false);
    for (const arch::Tap& tap : block.taps) {
      if (tap.node >= 1) live[static_cast<std::size_t>(tap.node)] = true;
    }
    // Operands precede their op, so one reverse sweep closes the set.
    i128 bound = 1;  // the input value itself
    for (int node = n_nodes - 1; node >= 1; --node) {
      if (!live[static_cast<std::size_t>(node)]) continue;
      const arch::AdderOp& op = graph.op(node);
      live[static_cast<std::size_t>(op.a)] = true;
      live[static_cast<std::size_t>(op.b)] = true;
      bound = std::max(
          bound, static_cast<i128>(abs_u64(graph.fundamental(node))));
    }
    bound = std::max(bound, tap_sum);
    // bound < 2^bits, so bound * 2^(B-1) < 2^63 whenever B <= 64 - bits.
    prog.max_input_bits = std::min(63, 64 - bit_width_i128(bound));
  }
  prog.timers.exec_compile.items = prog.macs_per_sample();
  return prog;
}

std::string stage_timers_json(const core::StageTimers& timers,
                              const std::string& indent) {
  const core::StageSample* samples[] = {
      &timers.primaries,     &timers.color_graph, &timers.set_cover,
      &timers.tree_growth,   &timers.seed_synthesis, &timers.optimize,
      &timers.lowering,      &timers.exec_compile,   &timers.exec_run};
  const char* names[] = {"primaries",      "color_graph", "set_cover",
                         "tree_growth",    "seed_synthesis", "optimize",
                         "lowering",       "exec.compile",   "exec.run"};
  std::string out = "{\n";
  for (std::size_t i = 0; i < 9; ++i) {
    out += indent + "  \"" + names[i] + "\": {\"ms\": " +
           io::json_double(samples[i]->ns / 1e6) + ", \"items\": " +
           std::to_string(samples[i]->items) + "},\n";
  }
  out += indent + "  \"total_ms\": " + io::json_double(timers.total_ns / 1e6) +
         "\n" + indent + "}";
  return out;
}

}  // namespace mrpf::exec
