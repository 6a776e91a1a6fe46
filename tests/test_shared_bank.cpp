// SharedBankGroup: union canonicalization, per-branch tap views, cache
// interaction (partition/order invariance of the solve key), and the
// shared-bank provenance in StageTimers.
#include <gtest/gtest.h>

#include <algorithm>

#include "mrpf/cache/solve_cache.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/shared_bank.hpp"

namespace mrpf {
namespace {

TEST(SharedUnionBank, CanonicalizesDistinctNonZeroSorted) {
  const std::vector<i64> u =
      core::shared_union_bank({{5, 0, -3}, {7, 5}, {0}, {}, {-3, 7, 7}});
  EXPECT_EQ(u, (std::vector<i64>{-3, 5, 7}));
  EXPECT_TRUE(core::shared_union_bank({{0, 0}, {}}).empty());
}

TEST(SharedUnionBank, InvariantUnderPartitionAndOrder) {
  Rng rng(0x11);
  std::vector<i64> values;
  for (int i = 0; i < 24; ++i) values.push_back(rng.next_int(-500, 500));
  // One big bank vs the same values dealt across four branches in a
  // different order must canonicalize identically — this is what lets
  // the shared solve reuse ordinary cache entries.
  std::vector<std::vector<i64>> dealt(4);
  for (std::size_t i = 0; i < values.size(); ++i) {
    dealt[(values.size() - i) % 4].push_back(values[i]);
  }
  EXPECT_EQ(core::shared_union_bank({values}),
            core::shared_union_bank(dealt));
}

TEST(SharedBankGroup, RejectsEmptyGroup) {
  EXPECT_THROW(core::SharedBankGroup({}), Error);
}

TEST(SharedBankGroup, BranchViewsRealizeTheirCoefficients) {
  const std::vector<std::vector<i64>> banks = {
      {3, 0, -25}, {11, 3}, {0, 0}, {100}};
  const core::SharedBankGroup group(banks);
  EXPECT_EQ(group.union_bank(), (std::vector<i64>{-25, 3, 11, 100}));

  const core::SharedBankResult r = group.solve(core::Scheme::kMrp);
  ASSERT_EQ(r.branch_taps.size(), banks.size());
  for (std::size_t b = 0; b < banks.size(); ++b) {
    ASSERT_EQ(r.branch_taps[b].size(), banks[b].size());
    const arch::MultiplierBlock view = r.branch_block(b);
    ASSERT_EQ(view.constants.size(), banks[b].size());
    for (std::size_t j = 0; j < banks[b].size(); ++j) {
      EXPECT_EQ(view.constants[j], banks[b][j]);
      if (banks[b][j] == 0) {
        EXPECT_EQ(r.branch_taps[b][j], core::SharedBankResult::kZeroTap);
      }
    }
    // The view must compute c·x for every coefficient, zeros included.
    view.verify({1, -3, 17, 256});
  }
}

TEST(SharedBankGroup, SharedAddersMatchOrdinaryUnionSolve) {
  const std::vector<std::vector<i64>> banks = {{7, 105}, {93, 7}, {679}};
  const core::SharedBankGroup group(banks);
  for (const core::Scheme scheme : core::all_schemes()) {
    core::MrpOptions opts;
    if (scheme == core::Scheme::kBnb) opts.opt_budget = 10'000;
    const core::SharedBankResult r = group.solve(scheme, opts);
    const core::SchemeResult direct =
        core::optimize_bank(group.union_bank(), scheme, opts);
    EXPECT_EQ(r.shared_adders(), direct.multiplier_adders)
        << core::to_string(scheme);
    EXPECT_EQ(r.solve.block.graph.num_adders(),
              direct.block.graph.num_adders())
        << core::to_string(scheme);
  }
}

TEST(SharedBankGroup, AllZeroGroupIsInert) {
  const core::SharedBankGroup group({{0, 0}, {0}});
  EXPECT_TRUE(group.union_bank().empty());
  const core::SharedBankResult r = group.solve(core::Scheme::kMrp);
  EXPECT_EQ(r.shared_adders(), 0);
  EXPECT_FALSE(r.cache_hit);
  const arch::MultiplierBlock view = r.branch_block(0);
  view.verify({5, -9});
}

TEST(SharedBankGroup, TimersCarrySharedBankProvenance) {
  const core::SharedBankGroup group({{3, 5}, {9, 3}, {45}});
  const core::SharedBankResult r = group.solve(core::Scheme::kMrpCse);
  EXPECT_EQ(r.solve.plan.timers.shared_bank.items, 3)
      << "items = branches covered by the one union solve";
  EXPECT_GE(r.solve.plan.timers.shared_bank.ns, 0.0);
  // Ordinary solves never set the sample: the field is per-call shared
  // provenance, not cached state.
  const core::SchemeResult plain =
      core::optimize_bank({3, 5, 9, 45}, core::Scheme::kMrpCse);
  EXPECT_EQ(plain.plan.timers.shared_bank.items, 0);
}

TEST(SharedBankGroup, WarmCacheHitsAcrossPartitionAndBranchOrder) {
  cache::SolveCache cache;
  core::MrpOptions opts;
  opts.cache = &cache;

  const core::SharedBankGroup cold({{3, 0, -25}, {11, 3}, {100}});
  EXPECT_FALSE(cold.solve(core::Scheme::kMrp, opts).cache_hit);

  // Same values, different partition, different order, extra zeros: the
  // canonical union is identical, so the warm probe must hit.
  const core::SharedBankGroup warm({{100, 11}, {0}, {-25}, {3, 3, 0}});
  EXPECT_EQ(warm.union_bank(), cold.union_bank());
  const core::SharedBankResult r = warm.solve(core::Scheme::kMrp, opts);
  EXPECT_TRUE(r.cache_hit);
  // Rehydrated results still carry this call's shared-bank provenance
  // (the sample is applied after the cache path, like lowering).
  EXPECT_EQ(r.solve.plan.timers.shared_bank.items, 4);

  // And the shared key is the ordinary bank key: a plain optimize_bank of
  // the union hits the same entry.
  core::SolveInfo info;
  core::optimize_bank(cold.union_bank(), core::Scheme::kMrp, opts, &info);
  EXPECT_TRUE(info.cache_hit);
}

TEST(SharedBankGroup, SolveIsDeterministicAcrossCacheStates) {
  Rng rng(0x77);
  std::vector<std::vector<i64>> banks(3);
  for (auto& bank : banks) {
    for (int i = 0; i < 6; ++i) bank.push_back(rng.next_int(-999, 999));
  }
  const core::SharedBankGroup group(banks);

  cache::SolveCache cache;
  core::MrpOptions cached;
  cached.cache = &cache;
  const core::SharedBankResult fresh = group.solve(core::Scheme::kMrp);
  (void)group.solve(core::Scheme::kMrp, cached);  // populate
  const core::SharedBankResult warm = group.solve(core::Scheme::kMrp, cached);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(fresh.shared_adders(), warm.shared_adders());
  EXPECT_EQ(fresh.branch_taps, warm.branch_taps);
  for (std::size_t b = 0; b < banks.size(); ++b) {
    const arch::MultiplierBlock a = fresh.branch_block(b);
    const arch::MultiplierBlock c = warm.branch_block(b);
    EXPECT_EQ(a.constants, c.constants);
    a.verify({13, -77});
    c.verify({13, -77});
  }
}

}  // namespace
}  // namespace mrpf
