#include "mrpf/core/synth_plan.hpp"

#include "mrpf/common/error.hpp"
#include "mrpf/core/build.hpp"

namespace mrpf::core {

SynthPlan SynthPlan::clone() const {
  SynthPlan out;
  out.scheme = scheme;
  out.analytic_adders = analytic_adders;
  out.ops = ops;
  out.taps = taps;
  if (mrp.has_value()) out.mrp = mrp->clone();
  out.cse = cse;
  out.xform = xform;
  out.timers = timers;
  return out;
}

std::vector<bool> SynthPlan::live_ops() const {
  // Node k+1 is defined by ops[k]; node 0 (the input) needs no op. Seed
  // the worklist with every tapped adder node and walk operands backward —
  // ops are topologically ordered, so one reverse sweep suffices.
  std::vector<bool> live(ops.size(), false);
  for (const arch::Tap& tap : taps) {
    if (tap.node >= 1 && static_cast<std::size_t>(tap.node) <= ops.size()) {
      live[static_cast<std::size_t>(tap.node) - 1] = true;
    }
  }
  for (std::size_t k = ops.size(); k-- > 0;) {
    if (!live[k]) continue;
    if (ops[k].a >= 1) live[static_cast<std::size_t>(ops[k].a) - 1] = true;
    if (ops[k].b >= 1) live[static_cast<std::size_t>(ops[k].b) - 1] = true;
  }
  return live;
}

std::size_t SynthPlan::live_tap_count() const {
  std::size_t n = 0;
  for (const arch::Tap& tap : taps) n += tap.node >= 0 ? 1 : 0;
  return n;
}

arch::MultiplierBlock lower_plan(const std::vector<i64>& bank,
                                 const SynthPlan& plan) {
  MRPF_CHECK(plan.taps.size() == bank.size(),
             "lower_plan: tap count does not match the bank");
  arch::MultiplierBlock block;
  for (const arch::AdderOp& op : plan.ops) {
    block.graph.add_op(op.a, op.shift_a, op.b, op.shift_b, op.subtract);
  }
  for (std::size_t i = 0; i < bank.size(); ++i) {
    MRPF_CHECK(plan.taps[i].constant == bank[i],
               "lower_plan: tap constant does not match the bank");
  }
  block.taps = plan.taps;
  block.constants = bank;
  block.verify({1, -1, 2, 9, -100, 2047});
  return block;
}

SynthPlan plan_from_block(Scheme scheme, int analytic_adders,
                          const arch::MultiplierBlock& block) {
  SynthPlan plan;
  plan.scheme = scheme;
  plan.analytic_adders = analytic_adders;
  const int nodes = block.graph.num_nodes();
  plan.ops.reserve(static_cast<std::size_t>(nodes > 0 ? nodes - 1 : 0));
  for (int node = 1; node < nodes; ++node) {
    plan.ops.push_back(block.graph.op(node));
  }
  plan.taps = block.taps;
  return plan;
}

SynthPlan make_mrp_plan(const std::vector<i64>& bank, const MrpResult& result,
                        const MrpOptions& options) {
  const Scheme scheme = options.cse_on_seed ? Scheme::kMrpCse : Scheme::kMrp;
  SynthPlan plan = plan_from_block(scheme, result.total_adders(),
                                   build_mrp_block(bank, result, options));
  plan.mrp = result.clone();
  plan.timers = result.timers;
  return plan;
}

}  // namespace mrpf::core
