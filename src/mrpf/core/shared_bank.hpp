// Cross-branch shared-bank synthesis: one solve covers the union of
// several polyphase branches' coefficient banks.
//
// In a decimate-by-M polyphase structure every branch runs at the low
// rate fs/M, so M branches can time-multiplex ONE multiplier block
// clocked at fs — the classic resource-folded polyphase architecture.
// That block must realize the union of all branches' constants, which is
// exactly the coefficient-sharing idea of Arslan et al. (parallel filter
// banks, arxiv 1907.05351) seen through the MRPF lens: instead of M
// independent solves over near-identical banks, canonicalize the union
// once (shared_union_bank below — distinct non-zero values, sorted, so
// the solve key is invariant under branch order and partition), run it
// through the ordinary SchemeDriver → plan-pass → lowering pipeline ONCE,
// and hand each branch a tap-indexed view into the shared
// arch::MultiplierBlock. Cache, serde and the synthesis daemon
// see a perfectly ordinary bank solve and need no changes.
#pragma once

#include <vector>

#include "mrpf/arch/tdf.hpp"
#include "mrpf/core/flow.hpp"

namespace mrpf::core {

/// Deterministic union bank of a shared-bank (multi-branch) solve: the
/// distinct non-zero coefficient values across every branch, sorted
/// ascending. This is the bank SharedBankGroup feeds through the ordinary
/// solve pipeline, so the shared-bank solve key is just the key of this
/// vector — invariant under branch order and under how the union is
/// partitioned into branches (two different polyphase factorizations of
/// the same tap multiset share one cache entry), and cache / serde / the
/// daemon need no shared-bank awareness at all. May be empty (every
/// branch all-zero); the group layer handles that without a solve.
std::vector<i64> shared_union_bank(
    const std::vector<std::vector<i64>>& branch_banks);

/// Outcome of one shared-bank solve: the union block plus per-branch tap
/// views (move-only, like the SchemeResult it wraps).
struct SharedBankResult {
  /// Tap index of a zero coefficient (free wiring, no hardware).
  static constexpr int kZeroTap = -1;

  Scheme scheme = Scheme::kSimple;
  /// The solved union bank (sorted distinct non-zero values; empty when
  /// every branch was all-zero and no solve ran).
  std::vector<i64> union_bank;
  /// The one shared solve over `union_bank` (block + plan). The plan's
  /// timers carry shared-bank provenance: timers.shared_bank.items is the
  /// branch count, .ns the union canonicalization + view mapping time.
  /// When `union_bank` is empty this is a default (inert) result.
  SchemeResult solve;
  /// branch_taps[b][j] indexes solve.block.taps for branch b's coefficient
  /// j (kZeroTap for zero coefficients). The indexed tap realizes exactly
  /// that coefficient — sign and shift included, since the union keeps
  /// distinct values distinct.
  std::vector<std::vector<int>> branch_taps;
  /// True when the union solve was rehydrated from options.cache.
  bool cache_hit = false;

  /// Adders of the one shared block (the paper's complexity metric for
  /// the whole group; 0 for an inert group).
  int shared_adders() const { return solve.multiplier_adders; }

  /// Materialized per-branch view: a MultiplierBlock holding a copy of
  /// the shared graph and only branch b's taps, suitable for
  /// arch::TdfFilter construction. The graph copy models the time slot a
  /// branch gets on the shared hardware — count shared_adders() once for
  /// the group, never per view.
  arch::MultiplierBlock branch_block(std::size_t b) const;
};

/// Front-end over optimize_bank for a group of coefficient banks that are
/// allowed to share one multiplier block (typically the polyphase
/// branches of one decimator). Construction canonicalizes the union;
/// solve() runs it through the existing pipeline once per scheme.
class SharedBankGroup {
 public:
  /// `branch_banks` may contain empty and all-zero branches (short
  /// filters decompose into those); the group must not be empty.
  explicit SharedBankGroup(std::vector<std::vector<i64>> branch_banks);

  /// Distinct non-zero values across all branches, sorted ascending.
  const std::vector<i64>& union_bank() const { return union_bank_; }
  const std::vector<std::vector<i64>>& branch_banks() const {
    return branch_banks_;
  }
  std::size_t num_branches() const { return branch_banks_.size(); }

  /// One solve of the union bank through the ordinary pipeline (cache
  /// probe included — the solve key is the union bank's ordinary key), then
  /// per-branch tap views mapped by exact value. Bit-deterministic: the
  /// result never depends on cache state or branch order.
  SharedBankResult solve(Scheme scheme, const MrpOptions& options = {}) const;

 private:
  std::vector<std::vector<i64>> branch_banks_;
  std::vector<i64> union_bank_;
};

}  // namespace mrpf::core
