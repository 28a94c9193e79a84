// End-to-end tests of the multi-core system simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/system.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/spec_profiles.hpp"

namespace esteem::cpu {
namespace {

// Scaled-down configuration for fast tests: 512 KB 8-way L2 (1024 sets),
// 8 KB L1s, 5 us retention (10k cycles), 100k-cycle intervals.
SystemConfig tiny(std::uint32_t ncores = 1) {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.ncores = ncores;
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

RawRunResult run_one(const SystemConfig& cfg, Technique tech,
                     const std::vector<std::string>& benchmarks,
                     instr_t instr = 200'000, std::uint64_t seed = 42,
                     telemetry::RunSink* sink = nullptr) {
  System system(cfg, tech, benchmarks, seed);
  RunOptions opt;
  opt.instr_per_core = instr;
  return system.run_group(opt, {sink}).front();
}

TEST(System, BaselineRunsToTarget) {
  const RawRunResult r = run_one(tiny(), Technique::BaselinePeriodicAll, {"gamess"});
  ASSERT_EQ(r.ipc.size(), 1u);
  EXPECT_GT(r.ipc[0], 0.0);
  EXPECT_LE(r.ipc[0], 1.0);  // in-order, 1-wide
  EXPECT_GE(r.wall_cycles, 200'000u);
  EXPECT_GT(r.refreshes, 0u);
  // Baseline never reconfigures: F_A is exactly 1.
  EXPECT_DOUBLE_EQ(r.avg_active_ratio, 1.0);
  EXPECT_DOUBLE_EQ(r.counters.fa_seconds, r.counters.seconds);
  EXPECT_EQ(r.counters.transitions, 0u);
}

// A zero budget would report the one reference the run loop always steps
// as a measurement; one instruction is the smallest legal run.
TEST(System, RefusesAnEmptyBudgetButNotOneInstruction) {
  System system(tiny(), Technique::BaselinePeriodicAll, {"gamess"}, 42);
  RunOptions options;
  options.instr_per_core = 0;
  EXPECT_THROW((void)system.run(options), std::invalid_argument);
  options.instr_per_core = 1;
  const RawRunResult r = system.run(options);
  EXPECT_EQ(r.instr_per_core, 1u);
  EXPECT_GT(r.wall_cycles, 0u);
}

TEST(System, RefusesAnUnresolvedPaperScaledInterval) {
  SystemConfig cfg = tiny();
  apply_paper_scaled_interval(cfg);
  EXPECT_THROW(System(cfg, Technique::Esteem, {"gamess"}, 42), std::invalid_argument);
  resolve_interval(cfg, 200'000);
  EXPECT_EQ(cfg.esteem.interval_cycles, scaled_interval(cfg, 200'000));
  EXPECT_NO_THROW(System(cfg, Technique::Esteem, {"gamess"}, 42));
}

TEST(System, BaselineRefreshCountMatchesGeometry) {
  const SystemConfig cfg = tiny();
  const RawRunResult r = run_one(cfg, Technique::BaselinePeriodicAll, {"gamess"});
  // All 4096 lines refreshed once per 10k-cycle period.
  const std::uint64_t periods = r.wall_cycles / cfg.retention_cycles();
  const std::uint64_t lines = cfg.l2.geom.lines();
  EXPECT_GE(r.refreshes, periods * lines);
  EXPECT_LE(r.refreshes, (periods + 1) * lines);
}

TEST(System, EsteemShrinksCacheForCacheFriendlyWorkload) {
  const RawRunResult r = run_one(tiny(), Technique::Esteem, {"gamess"}, 400'000);
  EXPECT_LT(r.avg_active_ratio, 0.95);
  EXPECT_GT(r.avg_active_ratio, 0.1);
  EXPECT_GT(r.counters.transitions, 0u);
}

TEST(System, EsteemRefreshesLessThanBaseline) {
  const RawRunResult base =
      run_one(tiny(), Technique::BaselinePeriodicAll, {"gamess"}, 400'000);
  const RawRunResult est = run_one(tiny(), Technique::Esteem, {"gamess"}, 400'000);
  EXPECT_LT(est.refreshes, base.refreshes);
}

TEST(System, RpvRefreshesLessThanBaseline) {
  const RawRunResult base =
      run_one(tiny(), Technique::BaselinePeriodicAll, {"gamess"}, 400'000);
  const RawRunResult rpv = run_one(tiny(), Technique::RefrintRPV, {"gamess"}, 400'000);
  EXPECT_LT(rpv.refreshes, base.refreshes);
  // RPV never turns the cache off (§6.4).
  EXPECT_DOUBLE_EQ(rpv.avg_active_ratio, 1.0);
  EXPECT_EQ(rpv.counters.transitions, 0u);
}

TEST(System, PeriodicValidBetweenBaselineAndRpv) {
  const RawRunResult base =
      run_one(tiny(), Technique::BaselinePeriodicAll, {"bzip2"}, 300'000);
  const RawRunResult pv = run_one(tiny(), Technique::PeriodicValid, {"bzip2"}, 300'000);
  const RawRunResult rpv = run_one(tiny(), Technique::RefrintRPV, {"bzip2"}, 300'000);
  // Valid-only refresh saves vs. all-lines; polyphase additionally skips
  // recently-touched lines (Refrint's result).
  EXPECT_LE(pv.refreshes, base.refreshes);
  EXPECT_LE(rpv.refreshes, pv.refreshes);
}

TEST(System, DeterministicForSameSeed) {
  const RawRunResult a = run_one(tiny(), Technique::Esteem, {"gcc"}, 150'000, 7);
  const RawRunResult b = run_one(tiny(), Technique::Esteem, {"gcc"}, 150'000, 7);
  EXPECT_EQ(a.wall_cycles, b.wall_cycles);
  EXPECT_EQ(a.refreshes, b.refreshes);
  EXPECT_EQ(a.demand_misses, b.demand_misses);
  EXPECT_DOUBLE_EQ(a.ipc[0], b.ipc[0]);
  EXPECT_DOUBLE_EQ(a.avg_active_ratio, b.avg_active_ratio);
}

TEST(System, SeedChangesRun) {
  const RawRunResult a = run_one(tiny(), Technique::Esteem, {"gcc"}, 150'000, 7);
  const RawRunResult b = run_one(tiny(), Technique::Esteem, {"gcc"}, 150'000, 8);
  EXPECT_NE(a.wall_cycles, b.wall_cycles);
}

TEST(System, DualCoreRunsBothBenchmarks) {
  const RawRunResult r =
      run_one(tiny(2), Technique::Esteem, {"gobmk", "nekbone"}, 150'000);
  ASSERT_EQ(r.ipc.size(), 2u);
  EXPECT_GT(r.ipc[0], 0.0);
  EXPECT_GT(r.ipc[1], 0.0);
  EXPECT_EQ(r.total_instructions, 300'000u);
}

TEST(System, DualCoreSharedCacheContends) {
  // A streaming co-runner should hurt the cache-friendly benchmark compared
  // to running with another small-footprint benchmark.
  const RawRunResult friendly =
      run_one(tiny(2), Technique::BaselinePeriodicAll, {"gobmk", "nekbone"}, 150'000);
  const RawRunResult hostile =
      run_one(tiny(2), Technique::BaselinePeriodicAll, {"gobmk", "lbm"}, 150'000);
  EXPECT_LT(hostile.ipc[0], friendly.ipc[0]);
}

TEST(System, DualCoreRunClosesAtItsLastCore) {
  // A run ends when its last core finishes: wall time and the energy window
  // run to the furthest core clock, not to the lane's wall (slowest) clock.
  const SystemConfig cfg = tiny(2);
  System system(cfg, Technique::BaselinePeriodicAll, {"gobmk", "lbm"}, 42);
  RunOptions opt;
  opt.instr_per_core = 150'000;
  const RawRunResult r = system.run(opt);
  const MemorySystem& mem = system.memory();
  ASSERT_NE(mem.cycles(0), mem.cycles(1));
  // Without warm-up, measurement starts at cycle 0.
  EXPECT_EQ(r.wall_cycles, std::max(mem.cycles(0), mem.cycles(1)));
  EXPECT_DOUBLE_EQ(r.counters.seconds,
                   static_cast<double>(r.wall_cycles) / (cfg.freq_ghz * 1e9));
}

TEST(System, TimelineRecordsModuleWays) {
  const SystemConfig cfg = tiny();
  telemetry::RunSink sink("h264ref.esteem", cfg.freq_ghz,
                          telemetry::interval_columns(cfg.esteem.modules));
  (void)run_one(cfg, Technique::Esteem, {"h264ref"}, 400'000, 42, &sink);
  const telemetry::IntervalRecorder& rec = sink.recorder;
  ASSERT_GT(rec.rows(), 0u);
  // Attaching the sink recorded where the series starts: the measured
  // window's first cycle and the full starting allocation.
  EXPECT_EQ(sink.start_cycle + cfg.esteem.interval_cycles, rec.cycle(0));
  EXPECT_EQ(sink.start_ways,
            std::vector<std::uint32_t>(cfg.esteem.modules, cfg.l2.geom.ways));
  for (const double ratio : rec.series("active_ratio")) {
    EXPECT_GT(ratio, 0.0);
    EXPECT_LE(ratio, 1.0);
  }
  for (std::uint32_t m = 0; m < cfg.esteem.modules; ++m) {
    const std::vector<double>& ways =
        rec.series("module" + std::to_string(m) + "_active_ways");
    ASSERT_EQ(ways.size(), rec.rows());
    for (const double w : ways) {
      EXPECT_GE(w, cfg.esteem.a_min);
      EXPECT_LE(w, cfg.l2.geom.ways);
    }
  }
}

TEST(System, RejectsBenchmarkCountMismatch) {
  EXPECT_THROW(System(tiny(2), Technique::Esteem, {"gcc"}, 1), std::invalid_argument);
}

TEST(System, RefreshCountOrderingAcrossTechniques) {
  // For one workload: ecc-extended < smart-refresh <= rpv <= periodic-valid
  // <= baseline. (Smart-Refresh is polyphase's fine-grained limit; ECC
  // extends the interval itself.)
  const SystemConfig cfg = tiny();
  const auto base = run_one(cfg, Technique::BaselinePeriodicAll, {"bzip2"}, 300'000);
  const auto pv = run_one(cfg, Technique::PeriodicValid, {"bzip2"}, 300'000);
  const auto rpv = run_one(cfg, Technique::RefrintRPV, {"bzip2"}, 300'000);
  const auto smart = run_one(cfg, Technique::SmartRefresh, {"bzip2"}, 300'000);
  const auto ecc = run_one(cfg, Technique::EccExtended, {"bzip2"}, 300'000);
  EXPECT_LE(pv.refreshes, base.refreshes);
  EXPECT_LE(rpv.refreshes, pv.refreshes);
  EXPECT_LE(smart.refreshes, rpv.refreshes);
  EXPECT_LT(ecc.refreshes, pv.refreshes);
  EXPECT_GT(ecc.refreshes, 0u);
}

TEST(System, DirtyWorkloadsWriteBackToMemory) {
  // lbm stores ~45% of its accesses and streams far beyond the L2: dirty
  // lines must reach main memory as posted writes.
  const auto r = run_one(tiny(), Technique::BaselinePeriodicAll, {"lbm"}, 200'000);
  EXPECT_GT(r.mem_stats.mm_writebacks, 1000u);
  EXPECT_GT(r.mem_stats.l2_writeback_accesses, 1000u);
}

TEST(System, WarmupExcludedFromMeasurement) {
  const SystemConfig cfg = tiny();
  System warm(cfg, Technique::BaselinePeriodicAll, {"gamess"}, 42);
  RunOptions opt;
  opt.instr_per_core = 150'000;
  opt.warmup_instr_per_core = 150'000;
  const RawRunResult with_warm = warm.run(opt);

  // Warmed run: the measured window has far fewer (cold) misses per
  // instruction than a cold run of the same length.
  const RawRunResult cold =
      run_one(cfg, Technique::BaselinePeriodicAll, {"gamess"}, 150'000);
  EXPECT_LT(with_warm.demand_misses, cold.demand_misses);
  EXPECT_EQ(with_warm.total_instructions, 150'000u);
  EXPECT_GT(with_warm.ipc[0], 0.0);
}

TEST(System, StreamingWorkloadMissesHard) {
  const RawRunResult r =
      run_one(tiny(), Technique::BaselinePeriodicAll, {"libquantum"}, 200'000);
  // libquantum streams a region far larger than the L2: most demand L2
  // accesses must miss.
  const double miss_rate =
      static_cast<double>(r.mem_stats.demand_l2_misses) /
      static_cast<double>(r.mem_stats.demand_l2_hits + r.mem_stats.demand_l2_misses);
  EXPECT_GT(miss_rate, 0.85);
}

// Smoke sweep: every Table 1 benchmark profile runs end-to-end under ESTEEM
// and produces sane metrics.
class ProfileSmoke : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfileSmoke, RunsUnderEsteem) {
  const RawRunResult r = run_one(tiny(), Technique::Esteem, {GetParam()}, 60'000);
  EXPECT_GT(r.ipc[0], 0.0);
  EXPECT_LE(r.ipc[0], 1.0);
  EXPECT_GT(r.refreshes, 0u);
  EXPECT_GT(r.avg_active_ratio, 0.0);
  EXPECT_LE(r.avg_active_ratio, 1.0);
  EXPECT_EQ(r.total_instructions, 60'000u);
}

std::vector<std::string> all_benchmark_names() {
  std::vector<std::string> names;
  for (const auto& p : trace::all_profiles()) names.emplace_back(p.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ProfileSmoke,
                         ::testing::ValuesIn(all_benchmark_names()),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace esteem::cpu
