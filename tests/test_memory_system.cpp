// Direct unit tests of the memory hierarchy (MemorySystem), below the
// System run loop: latency composition, writeback paths, inclusion,
// interval bookkeeping, and measurement reset.
#include <gtest/gtest.h>

#include "cpu/memory_system.hpp"
#include "edram/refresh_policy.hpp"

namespace esteem::cpu {
namespace {

SystemConfig tiny() {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{4ULL * 1024, 2, 64};    // 32 sets
  cfg.l2.geom = CacheGeometry{128ULL * 1024, 8, 64};  // 256 sets
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 50'000;
  cfg.esteem.sampling_ratio = 16;
  cfg.l2.queue_pressure = 0.0;  // deterministic latencies for these tests
  cfg.validate();
  return cfg;
}

TEST(MemorySystem, L1HitLatency) {
  const SystemConfig cfg = tiny();
  MemorySystem mem(cfg, Technique::BaselinePeriodicAll);
  (void)mem.access(0, 0x10, false, 0);              // cold miss
  const cycle_t lat = mem.access(0, 0x10, false, 100);
  EXPECT_EQ(lat, cfg.l1.latency_cycles);
}

TEST(MemorySystem, MissLatencyComposition) {
  const SystemConfig cfg = tiny();
  MemorySystem mem(cfg, Technique::BaselinePeriodicAll);
  const cycle_t lat = mem.access(0, 0x10, false, 0);
  // L1 (2) + L2 lookup (12, no bank wait at t=0) + memory (220).
  EXPECT_EQ(lat, cfg.l1.latency_cycles + cfg.l2.latency_cycles + cfg.mem.latency_cycles);
  EXPECT_EQ(mem.stats().demand_l2_misses, 1u);
  EXPECT_EQ(mem.mm_stats().reads, 1u);
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  const SystemConfig cfg = tiny();
  MemorySystem mem(cfg, Technique::BaselinePeriodicAll);
  // Fill block, then evict it from the 2-way L1 set with two conflicting
  // blocks (same L1 set: stride 32 sets).
  (void)mem.access(0, 0x0, false, 0);
  (void)mem.access(0, 0x20, false, 1000);
  (void)mem.access(0, 0x40, false, 2000);
  const cycle_t lat = mem.access(0, 0x0, false, 3000);
  EXPECT_EQ(lat, cfg.l1.latency_cycles + cfg.l2.latency_cycles);
  EXPECT_EQ(mem.stats().demand_l2_hits, 1u);
}

TEST(MemorySystem, DirtyL1VictimWritesBackToL2) {
  const SystemConfig cfg = tiny();
  MemorySystem mem(cfg, Technique::BaselinePeriodicAll);
  (void)mem.access(0, 0x0, true, 0);  // store: dirty in L1
  (void)mem.access(0, 0x20, false, 1000);
  (void)mem.access(0, 0x40, false, 2000);  // evicts dirty 0x0
  EXPECT_EQ(mem.stats().l2_writeback_accesses, 1u);
}

TEST(MemorySystem, L2EvictionBackInvalidatesL1) {
  const SystemConfig cfg = tiny();
  MemorySystem mem(cfg, Technique::BaselinePeriodicAll);
  // Fill block 0, then thrash its 8-way L2 set (stride = 256 sets).
  (void)mem.access(0, 0x0, false, 0);
  for (block_t i = 1; i <= 8; ++i) {
    (void)mem.access(0, i * 256, false, 1000 * i);
  }
  // Block 0 was evicted from L2 and must be gone from the L1 too: the next
  // access misses all the way to memory (inclusion).
  const cycle_t lat = mem.access(0, 0x0, false, 100'000);
  EXPECT_GE(lat, cfg.mem.latency_cycles);
}

TEST(MemorySystem, DirtyL2VictimReachesMemory) {
  const SystemConfig cfg = tiny();
  MemorySystem mem(cfg, Technique::BaselinePeriodicAll);
  (void)mem.access(0, 0x0, true, 0);
  // Evict 0x0 from L1 first so its dirtiness reaches the L2...
  (void)mem.access(0, 0x20, false, 1000);
  (void)mem.access(0, 0x40, false, 2000);
  const auto writes_before = mem.mm_stats().writes;
  // ...then thrash the L2 set so the dirty line goes to memory.
  for (block_t i = 1; i <= 8; ++i) {
    (void)mem.access(0, i * 256, false, 10'000 * i);
  }
  EXPECT_GT(mem.mm_stats().writes, writes_before);
  EXPECT_GT(mem.stats().mm_writebacks, 0u);
}

TEST(MemorySystem, IntervalTickIntegratesActiveFraction) {
  const SystemConfig cfg = tiny();
  MemorySystem mem(cfg, Technique::Esteem);
  // Touch a single hot block so the algorithm shrinks everything to A_min.
  for (cycle_t t = 0; t < 50'000; t += 50) (void)mem.access(0, 0x7, false, t);
  mem.tick_interval(50'000);
  EXPECT_LT(mem.active_fraction(), 1.0);
  const auto counters = mem.energy_counters(100'000);
  EXPECT_LT(counters.fa_seconds, counters.seconds);
  EXPECT_GT(counters.transitions, 0u);
}

TEST(MemorySystem, ResetMeasurementZeroesCounters) {
  const SystemConfig cfg = tiny();
  MemorySystem mem(cfg, Technique::BaselinePeriodicAll);
  // Spread accesses past several 10k-cycle retention boundaries.
  for (block_t b = 0; b < 100; ++b) (void)mem.access(0, b, b % 3 == 0, b * 300);
  EXPECT_GT(mem.refreshes(), 0u);
  EXPECT_GT(mem.l2_stats().accesses(), 0u);

  mem.idle_until(0, 10'000'000);
  mem.start_measurement();
  EXPECT_EQ(mem.refreshes(), 0u);
  EXPECT_EQ(mem.l2_stats().accesses(), 0u);
  EXPECT_EQ(mem.mm_stats().accesses(), 0u);
  const auto counters = mem.energy_counters(10'000'000);
  EXPECT_DOUBLE_EQ(counters.seconds, 0.0);
  // State survives: the warmed lines still hit.
  const cycle_t lat = mem.access(0, 1, false, 10'000'001);
  EXPECT_LE(lat, cfg.l1.latency_cycles + cfg.l2.latency_cycles + 50);
}

TEST(MemorySystem, ModuleWaysExposedOnlyForEsteem) {
  const SystemConfig cfg = tiny();
  MemorySystem baseline(cfg, Technique::BaselinePeriodicAll);
  EXPECT_TRUE(baseline.module_active_ways().empty());
  MemorySystem esteem(cfg, Technique::Esteem);
  EXPECT_EQ(esteem.module_active_ways().size(), cfg.esteem.modules);
}

TEST(MemorySystem, PerCorePrivateL1s) {
  SystemConfig cfg = tiny();
  cfg.ncores = 2;
  MemorySystem mem(cfg, Technique::BaselinePeriodicAll);
  (void)mem.access(0, 0x10, false, 0);
  // Core 1 misses its own L1 but hits the shared L2.
  const cycle_t lat = mem.access(1, 0x10, false, 1000);
  EXPECT_EQ(lat, cfg.l1.latency_cycles + cfg.l2.latency_cycles);
}

TEST(RefreshLane, AccumulatesWindowAndTotal) {
  RefreshLane ln(tiny(), Technique::BaselinePeriodicAll,
                 std::make_unique<edram::PeriodicAllPolicy>(100, 10));
  ln.advance(10);
  ln.advance(20);
  EXPECT_EQ(ln.total_refreshes, 200u);
  // A window is the difference of two readings (start_measurement's baseline).
  ln.refresh_baseline = ln.total_refreshes;
  ln.advance(30);
  EXPECT_EQ(ln.refreshes(), 100u);
  ln.advance(30);  // no time passed: nothing more to refresh
  EXPECT_EQ(ln.refreshes(), 100u);
  EXPECT_EQ(ln.total_refreshes, 300u);
}

TEST(RefreshLane, SyncsBankLoadFromPolicyDemand) {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l2.banks = 2;
  cfg.l2.geom = CacheGeometry{8ULL * 8 * 64, 8, 64};  // 8 sets
  cfg.l2.refresh_occupancy_cycles = 1.0;
  cfg.l2.access_occupancy_cycles = 1;
  cfg.l2.queue_pressure = 0.0;
  cfg.edram.retention_us = 0.05;
  ASSERT_EQ(cfg.retention_cycles(), 100u);
  RefreshLane ln(cfg, Technique::PeriodicValid,
                 std::make_unique<edram::PeriodicValidPolicy>(100));
  for (std::uint32_t w = 0; w < 8; ++w) ln.policy->on_fill(0, w, w, 0);
  ln.sync_bank_load(0);
  // 8 valid lines per 100 cycles over 2 banks -> one slot per 25 cycles.
  (void)ln.banks.access(0, 1000);
  (void)ln.banks.access(1, 1000);
  EXPECT_NEAR(static_cast<double>(ln.banks.total_refresh_slots()), 2.0 * 1000.0 / 25.0,
              4.0);
}

}  // namespace
}  // namespace esteem::cpu
