// Tests for the ESTEEM reconfiguration controller.
#include <gtest/gtest.h>

#include <vector>

#include "cache/cache.hpp"
#include "cache/module_map.hpp"
#include "common/config.hpp"
#include "core/controller.hpp"
#include "profiler/atd.hpp"
#include "profiler/leader_sets.hpp"

namespace esteem::core {
namespace {

constexpr std::uint32_t kSets = 64;
constexpr std::uint32_t kWays = 8;
constexpr std::uint32_t kModules = 4;   // 16 sets per module
constexpr std::uint32_t kRs = 16;       // exactly one leader per module

struct Fixture {
  cache::SetAssocCache l2{{kSets, kWays}, "L2"};
  cache::ModuleMap modules{kSets, kModules};
  profiler::LeaderSets leaders{kSets, kRs, modules};
  profiler::ModuleProfiler prof{modules, kWays, leaders};
  EsteemParams params;

  Fixture() {
    params.alpha = 0.97;
    params.a_min = 2;
    params.modules = kModules;
    params.sampling_ratio = kRs;
    params.history_weight = 0.0;  // last-interval-only, as in Algorithm 1
  }

  std::uint32_t leader_of(std::uint32_t module) const {
    for (std::uint32_t s = modules.first_set(module);
         s < modules.first_set(module) + modules.sets_per_module(); ++s) {
      if (leaders.is_leader(s)) return s;
    }
    ADD_FAILURE() << "no leader in module " << module;
    return 0;
  }

  // Concentrates this module's profiled hits at the given LRU position.
  void hits_at(std::uint32_t module, std::uint32_t pos, int count = 100) {
    const std::uint32_t s = leader_of(module);
    for (int i = 0; i < count; ++i) prof.record_hit(s, pos);
  }
};

TEST(Controller, ShrinksFollowersOnlyToAmin) {
  Fixture f;
  EsteemController ctl(f.l2, f.modules, f.leaders, f.prof, f.params);
  f.hits_at(0, 0);  // all hits MRU: shrink module 0 to A_min
  // Deep-position hits keep the other modules fully on, isolating module 0.
  for (std::uint32_t m = 1; m < kModules; ++m) f.hits_at(m, kWays - 1);

  const ReconfigResult r = ctl.run_interval(1000, nullptr);
  EXPECT_EQ(ctl.module_active_ways()[0], f.params.a_min);
  for (std::uint32_t s = 0; s < kSets; ++s) {
    if (f.modules.module_of(s) != 0) continue;
    if (f.leaders.is_leader(s)) {
      EXPECT_EQ(f.l2.active_ways(s), kWays) << "leader " << s << " reconfigured";
    } else {
      EXPECT_EQ(f.l2.active_ways(s), f.params.a_min);
    }
  }
  // N_L: 6 ways toggled in each of the 15 follower sets of module 0.
  EXPECT_EQ(r.transitions, 6u * 15u);
}

TEST(Controller, ModulesWithoutHitsAlsoShrink) {
  Fixture f;
  EsteemController ctl(f.l2, f.modules, f.leaders, f.prof, f.params);
  ctl.run_interval(1000, nullptr);
  // No profiled hits anywhere: every module drops to A_min.
  for (std::uint32_t m = 0; m < kModules; ++m) {
    EXPECT_EQ(ctl.module_active_ways()[m], f.params.a_min);
  }
}

TEST(Controller, DirtyLinesWrittenBackOnShrink) {
  Fixture f;
  EsteemController ctl(f.l2, f.modules, f.leaders, f.prof, f.params);

  // Fill one follower set of module 0 with 8 dirty lines.
  std::uint32_t victim_set = f.modules.first_set(0);
  while (f.leaders.is_leader(victim_set)) ++victim_set;
  for (std::uint32_t w = 0; w < kWays; ++w) {
    f.l2.access(victim_set + w * kSets, /*is_store=*/true, w);
  }

  std::vector<block_t> written;
  f.hits_at(0, 0);
  const ReconfigResult r =
      ctl.run_interval(1000, [&](block_t b) { written.push_back(b); });
  // 6 ways deactivated in that set, all dirty.
  EXPECT_GE(r.writebacks, 6u);
  EXPECT_EQ(written.size(), r.writebacks);
  EXPECT_EQ(r.clean_discards + r.writebacks, 6u);  // only that set held lines
}

TEST(Controller, GrowthTurnsWaysBackOn) {
  Fixture f;
  EsteemController ctl(f.l2, f.modules, f.leaders, f.prof, f.params);
  f.hits_at(0, 0);
  ctl.run_interval(1000, nullptr);
  ASSERT_EQ(ctl.module_active_ways()[0], 2u);

  // Next interval: hits spread to the deepest position -> need all ways.
  f.hits_at(0, kWays - 1);
  const ReconfigResult r = ctl.run_interval(2000, nullptr);
  EXPECT_EQ(ctl.module_active_ways()[0], kWays);
  EXPECT_EQ(r.writebacks, 0u);  // growing flushes nothing
  EXPECT_GT(r.transitions, 0u);
}

TEST(Controller, ActiveFractionAccountsForLeaders) {
  Fixture f;
  EsteemController ctl(f.l2, f.modules, f.leaders, f.prof, f.params);
  EXPECT_DOUBLE_EQ(ctl.active_fraction(), 1.0);

  ctl.run_interval(1000, nullptr);  // all modules -> A_min = 2
  // 4 leader sets fully on + 60 follower sets at 2/8.
  const double expected = (4.0 * 8 + 60.0 * 2) / (64.0 * 8);
  EXPECT_DOUBLE_EQ(ctl.active_fraction(), expected);
}

TEST(Controller, MaxWayDeltaLimitsStep) {
  Fixture f;
  f.params.max_way_delta = 2;
  EsteemController ctl(f.l2, f.modules, f.leaders, f.prof, f.params);
  f.hits_at(0, 0);
  ctl.run_interval(1000, nullptr);
  // Wanted 2, but may only move 2 ways per interval: 8 -> 6.
  EXPECT_EQ(ctl.module_active_ways()[0], 6u);
  f.hits_at(0, 0);
  ctl.run_interval(2000, nullptr);
  EXPECT_EQ(ctl.module_active_ways()[0], 4u);
}

TEST(Controller, HysteresisSuppressesReversal) {
  Fixture f;
  f.params.hysteresis_intervals = 2;
  EsteemController ctl(f.l2, f.modules, f.leaders, f.prof, f.params);

  f.hits_at(0, 0);
  ctl.run_interval(1000, nullptr);  // shrink to 2
  ASSERT_EQ(ctl.module_active_ways()[0], 2u);

  // Immediate reversal (grow) is suppressed...
  f.hits_at(0, kWays - 1);
  ctl.run_interval(2000, nullptr);
  EXPECT_EQ(ctl.module_active_ways()[0], 2u);

  // ...but after the hysteresis window expires, the growth goes through.
  f.hits_at(0, kWays - 1);
  ctl.run_interval(3000, nullptr);
  f.hits_at(0, kWays - 1);
  ctl.run_interval(4000, nullptr);
  EXPECT_EQ(ctl.module_active_ways()[0], kWays);
}

TEST(Controller, HistorySmoothingDampsOscillation) {
  Fixture f;
  f.params.history_weight = 0.75;
  EsteemController ctl(f.l2, f.modules, f.leaders, f.prof, f.params);

  // Build up a strong MRU-concentrated history...
  for (int k = 0; k < 4; ++k) {
    f.hits_at(0, 0, 400);
    ctl.run_interval(1000 * (k + 1), nullptr);
  }
  ASSERT_EQ(ctl.module_active_ways()[0], f.params.a_min);

  // ...one noisy interval with a handful of deep hits no longer swings the
  // decision (without smoothing it would jump to 8 ways).
  f.hits_at(0, kWays - 1, 5);
  ctl.run_interval(5000, nullptr);
  EXPECT_EQ(ctl.module_active_ways()[0], f.params.a_min);
}

TEST(Controller, ProfilerClearedEachInterval) {
  Fixture f;
  EsteemController ctl(f.l2, f.modules, f.leaders, f.prof, f.params);
  f.hits_at(0, kWays - 1);
  ctl.run_interval(1000, nullptr);
  EXPECT_EQ(f.prof.hits(0).total(), 0u);
  EXPECT_EQ(ctl.intervals_run(), 1u);
}

}  // namespace
}  // namespace esteem::core
