#include "mrpf/core/shared_bank.hpp"

#include <algorithm>
#include <utility>

#include "mrpf/common/error.hpp"

namespace mrpf::core {

std::vector<i64> shared_union_bank(
    const std::vector<std::vector<i64>>& branch_banks) {
  std::vector<i64> u;
  for (const std::vector<i64>& bank : branch_banks) {
    for (const i64 c : bank) {
      if (c != 0) u.push_back(c);
    }
  }
  std::sort(u.begin(), u.end());
  u.erase(std::unique(u.begin(), u.end()), u.end());
  return u;
}

SharedBankGroup::SharedBankGroup(std::vector<std::vector<i64>> branch_banks)
    : branch_banks_(std::move(branch_banks)),
      union_bank_(shared_union_bank(branch_banks_)) {
  MRPF_CHECK(!branch_banks_.empty(), "SharedBankGroup: no branches");
}

SharedBankResult SharedBankGroup::solve(Scheme scheme,
                                        const MrpOptions& options) const {
  StageSample shared;
  SharedBankResult out;
  out.scheme = scheme;
  out.union_bank = union_bank_;

  if (!union_bank_.empty()) {
    SolveInfo info;
    out.solve = optimize_bank(union_bank_, scheme, options, &info);
    out.cache_hit = info.cache_hit;
  } else {
    // Every branch is all-zero: nothing to solve, nothing to cache.
    out.solve.scheme = scheme;
  }

  {
    // Only the union canonicalization (done at construction, re-done here
    // implicitly by the sorted lookup) and the view mapping are
    // shared-bank work; the solve above timed itself as usual.
    const StageStopwatch watch(shared);
    out.branch_taps.reserve(branch_banks_.size());
    for (const std::vector<i64>& bank : branch_banks_) {
      std::vector<int> view;
      view.reserve(bank.size());
      for (const i64 c : bank) {
        if (c == 0) {
          view.push_back(SharedBankResult::kZeroTap);
          continue;
        }
        const auto it =
            std::lower_bound(union_bank_.begin(), union_bank_.end(), c);
        MRPF_CHECK(it != union_bank_.end() && *it == c,
                   "SharedBankGroup: branch coefficient missing from the "
                   "union bank");
        const auto tap_index =
            static_cast<std::size_t>(it - union_bank_.begin());
        MRPF_CHECK(tap_index < out.solve.block.taps.size() &&
                       out.solve.block.taps[tap_index].constant == c,
                   "SharedBankGroup: union tap does not realize the branch "
                   "coefficient");
        view.push_back(static_cast<int>(tap_index));
      }
      out.branch_taps.push_back(std::move(view));
    }
  }
  // Provenance lands after the cache/serde path on purpose: like the
  // lowering sample, it describes THIS call (a rehydrated union solve is
  // still one shared solve covering these branches), and cached plan
  // bytes stay byte-identical whether the solve came from a group or not.
  shared.items = static_cast<std::uint64_t>(branch_banks_.size());
  out.solve.plan.timers.shared_bank = shared;
  return out;
}

arch::MultiplierBlock SharedBankResult::branch_block(std::size_t b) const {
  MRPF_CHECK(b < branch_taps.size(), "branch_block: branch out of range");
  const std::vector<int>& view = branch_taps[b];
  arch::MultiplierBlock block;
  block.graph = solve.block.graph;  // shared structure, one time slot
  block.taps.reserve(view.size());
  block.constants.reserve(view.size());
  for (const int tap_index : view) {
    if (tap_index == kZeroTap) {
      block.taps.push_back(arch::Tap{});  // node -1: the constant 0
      block.constants.push_back(0);
    } else {
      const arch::Tap& tap =
          solve.block.taps[static_cast<std::size_t>(tap_index)];
      block.taps.push_back(tap);
      block.constants.push_back(tap.constant);
    }
  }
  return block;
}

}  // namespace mrpf::core
