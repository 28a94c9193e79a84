// Tests for the Cache Decay comparison technique (block-level power gating).
#include <gtest/gtest.h>

#include "cache/cache.hpp"
#include "cpu/system.hpp"
#include "edram/decay.hpp"

namespace esteem::edram {
namespace {

struct DecayFixture {
  cache::SetAssocCache cache{{4, 2}};
  // retention 100, decay after 200 idle cycles, checks every 100.
  CacheDecayPolicy policy{cache, 100, 200, 100};
  DecayFixture() { cache.set_listener(&policy); }
};

TEST(CacheDecay, IdleLineDecays) {
  DecayFixture f;
  f.cache.access(0, false, 10);
  EXPECT_EQ(f.policy.valid_lines(), 1u);
  EXPECT_DOUBLE_EQ(f.policy.active_fraction(), 1.0);

  // Check at t=100: idle 90 < 200, stays; refresh fires (1 line).
  const std::uint64_t r1 = f.policy.advance(100);
  EXPECT_EQ(r1, 1u);
  EXPECT_TRUE(f.cache.contains(0));

  // Check at t=300: idle 290 >= 200 -> gated off.
  f.policy.advance(300);
  EXPECT_FALSE(f.cache.contains(0));
  EXPECT_EQ(f.policy.valid_lines(), 0u);
  EXPECT_EQ(f.policy.decayed_lines(), 1u);
  EXPECT_LT(f.policy.active_fraction(), 1.0);
  EXPECT_EQ(f.policy.transitions(), 1u);
}

TEST(CacheDecay, TouchedLineSurvives) {
  DecayFixture f;
  f.cache.access(0, false, 10);
  std::uint64_t refreshed = 0;
  for (cycle_t t = 50; t <= 1000; t += 50) {
    refreshed += f.policy.advance(t);
    f.cache.access(0, false, t);  // keep it warm
  }
  EXPECT_TRUE(f.cache.contains(0));
  EXPECT_EQ(f.policy.decayed_lines(), 0u);
  EXPECT_GT(refreshed, 0u);  // still refreshed once per retention
}

TEST(CacheDecay, DirtyDecayCountsWriteback) {
  DecayFixture f;
  f.cache.access(0, true, 10);  // dirty
  f.policy.advance(300);
  EXPECT_EQ(f.policy.decay_writebacks(), 1u);
  EXPECT_FALSE(f.cache.contains(0));
}

TEST(CacheDecay, RefillRepowersSlot) {
  DecayFixture f;
  f.cache.access(0, false, 10);
  f.policy.advance(300);  // decayed
  const std::uint64_t trans_after_decay = f.policy.transitions();
  f.cache.access(0, false, 310);  // miss, refills the gated slot
  EXPECT_EQ(f.policy.transitions(), trans_after_decay + 1);  // gate back on
  EXPECT_DOUBLE_EQ(f.policy.active_fraction(), 1.0);
}

TEST(CacheDecay, Validation) {
  cache::SetAssocCache c{{2, 2}};
  EXPECT_THROW(CacheDecayPolicy(c, 0, 10, 10), std::invalid_argument);
  EXPECT_THROW(CacheDecayPolicy(c, 10, 0, 10), std::invalid_argument);
  EXPECT_THROW(CacheDecayPolicy(c, 10, 10, 0), std::invalid_argument);
}

TEST(CacheDecay, SystemRunSavesRefreshesAndLeakage) {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 100'000;

  cpu::System base(cfg, cpu::Technique::BaselinePeriodicAll, {"gamess"}, 42);
  cpu::System decay(cfg, cpu::Technique::CacheDecay, {"gamess"}, 42);
  cpu::RunOptions opt;
  opt.instr_per_core = 400'000;
  const auto rb = base.run(opt);
  const auto rd = decay.run(opt);

  EXPECT_LT(rd.refreshes, rb.refreshes);
  EXPECT_LT(rd.avg_active_ratio, 1.0);   // dead blocks gated off
  EXPECT_GT(rd.avg_active_ratio, 0.05);
  EXPECT_GT(rd.counters.transitions, 0u);
}

}  // namespace
}  // namespace esteem::edram
