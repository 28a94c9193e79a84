// Tests for leader-set selection and the per-module LRU-position profiler.
#include <gtest/gtest.h>

#include "cache/module_map.hpp"
#include "profiler/atd.hpp"
#include "profiler/leader_sets.hpp"

namespace esteem::profiler {
namespace {

TEST(LeaderSets, OnePerSamplingGroup) {
  cache::ModuleMap modules(4096, 8);
  LeaderSets leaders(4096, 64, modules);
  EXPECT_EQ(leaders.count(), 4096u / 64u);
  std::uint32_t found = 0;
  for (std::uint32_t s = 0; s < 4096; ++s) found += leaders.is_leader(s);
  EXPECT_EQ(found, leaders.count());
}

TEST(LeaderSets, EveryModuleHasALeader) {
  for (std::uint32_t mods : {2u, 4u, 8u, 16u, 32u, 64u}) {
    cache::ModuleMap modules(4096, mods);
    LeaderSets leaders(4096, 64, modules);
    for (std::uint32_t m = 0; m < mods; ++m) {
      EXPECT_GE(leaders.leaders_in_module(m), 1u) << "module " << m;
    }
  }
}

TEST(LeaderSets, ForcedLeaderWhenGroupsSpanModules) {
  // 128 sets, 64 modules (2 sets each), R_s = 64: only 2 diagonal leaders,
  // so most modules get a forced one.
  cache::ModuleMap modules(128, 64);
  LeaderSets leaders(128, 64, modules);
  for (std::uint32_t m = 0; m < 64; ++m) {
    EXPECT_GE(leaders.leaders_in_module(m), 1u);
  }
  EXPECT_GE(leaders.count(), 64u);
}

TEST(LeaderSets, StaggeredAcrossGroups) {
  cache::ModuleMap modules(4096, 8);
  LeaderSets leaders(4096, 64, modules);
  // The diagonal stagger means leaders are not all at the same offset.
  std::uint32_t first_offset = 4096;
  bool differs = false;
  for (std::uint32_t s = 0; s < 4096; ++s) {
    if (!leaders.is_leader(s)) continue;
    const std::uint32_t offset = s % 64;
    if (first_offset == 4096) {
      first_offset = offset;
    } else if (offset != first_offset) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(LeaderSets, Validation) {
  cache::ModuleMap modules(64, 4);
  EXPECT_THROW(LeaderSets(0, 64, modules), std::invalid_argument);
  EXPECT_THROW(LeaderSets(64, 0, modules), std::invalid_argument);
}

TEST(ModuleProfiler, RecordsOnlyLeaderHits) {
  cache::ModuleMap modules(64, 4);
  LeaderSets leaders(64, 16, modules);
  ModuleProfiler prof(modules, 8, leaders);

  std::uint32_t leader_set = 0, follower_set = 0;
  for (std::uint32_t s = 0; s < 64; ++s) {
    if (leaders.is_leader(s)) leader_set = s;
    else follower_set = s;
  }

  prof.record_hit(leader_set, 3);
  prof.record_hit(follower_set, 3);  // ignored
  std::uint64_t recorded = 0;
  for (std::uint32_t m = 0; m < prof.modules(); ++m) recorded += prof.hits(m).total();
  EXPECT_EQ(recorded, 1u);
  EXPECT_EQ(prof.hits(modules.module_of(leader_set)).at(3), 1u);
}

TEST(ModuleProfiler, AttributesToOwningModule) {
  cache::ModuleMap modules(64, 4);
  LeaderSets leaders(64, 16, modules);
  ModuleProfiler prof(modules, 8, leaders);

  for (std::uint32_t m = 0; m < 4; ++m) {
    // Find a leader inside module m and hit it at position m.
    for (std::uint32_t s = modules.first_set(m); s < modules.first_set(m) + 16; ++s) {
      if (leaders.is_leader(s)) {
        prof.record_hit(s, m);
        break;
      }
    }
  }
  for (std::uint32_t m = 0; m < 4; ++m) {
    EXPECT_EQ(prof.hits(m).at(m), 1u) << "module " << m;
    EXPECT_EQ(prof.hits(m).total(), 1u) << "module " << m;
  }
}

TEST(ModuleProfiler, ClearResetsHistograms) {
  cache::ModuleMap modules(32, 2);
  LeaderSets leaders(32, 8, modules);
  ModuleProfiler prof(modules, 4, leaders);
  for (std::uint32_t s = 0; s < 32; ++s) {
    if (leaders.is_leader(s)) prof.record_hit(s, 1);
  }
  EXPECT_GT(prof.hits(0).total(), 0u);
  prof.clear();
  EXPECT_EQ(prof.hits(0).total(), 0u);
  EXPECT_EQ(prof.hits(1).total(), 0u);
}

}  // namespace
}  // namespace esteem::profiler
