// Metamorphic system tests: relations between two runs that must hold
// exactly whatever the absolute numbers are, so they check the simulator
// without a golden.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace esteem::sim {
namespace {

// test_system's scaled-down configuration: 512 KB 8-way L2 (1024 sets),
// 8 KB L1s, 5 us retention (10k cycles), 100k-cycle intervals.
SystemConfig tiny() {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 100'000;
  cfg.esteem.sampling_ratio = 32;
  cfg.esteem.a_min = 2;
  cfg.validate();
  return cfg;
}

const std::vector<std::string> kWorkloads = {"bzip2", "mcf", "gamess", "astar"};

RunOutcome run(const SystemConfig& cfg, Technique technique, const std::string& workload) {
  RunSpec spec;
  spec.config = cfg;
  spec.technique = technique;
  spec.workload = {workload, {workload}};
  spec.instr_per_core = 300'000;
  spec.warmup_instr_per_core = 60'000;
  spec.seed = 42;
  return run_experiment(spec);
}

// A_min = ways leaves Algorithm 1 nothing to turn off, non-LRU modules
// included, so ESTEEM must degenerate to refreshing the valid lines of a
// fully-on cache: periodic-valid, bit for bit.
TEST(Metamorphic, EsteemWithAminEqualWaysIsPeriodicValid) {
  SystemConfig cfg = tiny();
  cfg.esteem.a_min = cfg.l2.geom.ways;
  for (const std::string& wl : kWorkloads) {
    SCOPED_TRACE(wl);
    const cpu::RawRunResult est = run(cfg, Technique::Esteem, wl).raw;
    const cpu::RawRunResult pv = run(cfg, Technique::PeriodicValid, wl).raw;
    EXPECT_EQ(est.counters.transitions, 0u);
    EXPECT_EQ(est.wall_cycles, pv.wall_cycles);
    EXPECT_EQ(est.refreshes, pv.refreshes);
    EXPECT_EQ(est.demand_misses, pv.demand_misses);
    EXPECT_EQ(est.ipc, pv.ipc);
    EXPECT_EQ(est.counters.seconds, pv.counters.seconds);
    EXPECT_EQ(est.counters.fa_seconds, pv.counters.fa_seconds);
    EXPECT_EQ(est.counters.l2_hits, pv.counters.l2_hits);
    EXPECT_EQ(est.counters.l2_misses, pv.counters.l2_misses);
    EXPECT_EQ(est.counters.refreshes, pv.counters.refreshes);
    EXPECT_EQ(est.counters.mm_accesses, pv.counters.mm_accesses);
    EXPECT_EQ(est.counters.transitions, pv.counters.transitions);
    EXPECT_EQ(est.counters.ecc_corrections, pv.counters.ecc_corrections);
  }
}

// [energy] refresh_scale multiplies the per-line refresh energy and nothing
// else: the run is unchanged, refresh energy doubles exactly (a power-of-two
// scale commutes with rounding) and every other component is bit-equal.
TEST(Metamorphic, RefreshEnergyScalesExactlyWithRefreshScale) {
  SystemConfig scaled_cfg = tiny();
  scaled_cfg.energy.refresh_scale = 2.0;
  for (const std::string& wl : kWorkloads) {
    SCOPED_TRACE(wl);
    const energy::EnergyBreakdown base = run(tiny(), Technique::RefrintRPV, wl).energy;
    const energy::EnergyBreakdown scaled = run(scaled_cfg, Technique::RefrintRPV, wl).energy;
    EXPECT_GT(base.refresh_l2_j, 0.0);
    EXPECT_EQ(scaled.refresh_l2_j, 2.0 * base.refresh_l2_j);
    EXPECT_EQ(scaled.leak_l2_j, base.leak_l2_j);
    EXPECT_EQ(scaled.dyn_l2_j, base.dyn_l2_j);
    EXPECT_EQ(scaled.ecc_l2_j, base.ecc_l2_j);
    EXPECT_EQ(scaled.mm_j, base.mm_j);
    EXPECT_EQ(scaled.algo_j, base.algo_j);
  }
}

// The baseline refreshes all L lines once per retention period, so halving
// the retention doubles the refresh count, up to one period's worth at each
// end of the measured window. With zero refresh occupancy, refresh cannot
// perturb timing, so the two runs must otherwise be the same run.
TEST(Metamorphic, PeriodicAllRefreshCountIsInverseInRetention) {
  SystemConfig cfg = tiny();
  cfg.l2.refresh_occupancy_cycles = 0.0;
  SystemConfig halved = cfg;
  halved.edram.retention_us = cfg.edram.retention_us / 2.0;
  ASSERT_EQ(2 * halved.retention_cycles(), cfg.retention_cycles());
  const auto lines = static_cast<std::int64_t>(cfg.l2.geom.lines());
  for (const std::string& wl : kWorkloads) {
    SCOPED_TRACE(wl);
    const cpu::RawRunResult r = run(cfg, Technique::BaselinePeriodicAll, wl).raw;
    const cpu::RawRunResult h = run(halved, Technique::BaselinePeriodicAll, wl).raw;
    EXPECT_EQ(r.wall_cycles, h.wall_cycles);
    EXPECT_EQ(r.demand_misses, h.demand_misses);
    const auto n_r = static_cast<std::int64_t>(r.refreshes);
    const auto n_h = static_cast<std::int64_t>(h.refreshes);
    EXPECT_GT(n_r, 0);
    EXPECT_EQ(n_r % lines, 0);
    EXPECT_EQ(n_h % lines, 0);
    const std::int64_t excess = n_h - 2 * n_r;
    EXPECT_TRUE(excess == -lines || excess == 0 || excess == lines)
        << "N_R(r/2) - 2 N_R(r) = " << excess << " with L = " << lines;
  }
}

}  // namespace
}  // namespace esteem::sim
