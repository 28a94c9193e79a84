// Fused runs against runs alone. Runs of one single-core, exhaustive,
// fault-free workload share one reference stream: techniques that only
// schedule refreshes share one L1/L2 pass, one refresh lane each, and every
// other technique runs on a hierarchy of its own (DESIGN.md §7, "Hierarchy
// and lanes"). Every fused outcome and interval series must equal the run
// of that spec on its own, and only the runs the predicates admit may
// share a stream or a pass.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cpu/memory_system.hpp"
#include "cpu/system.hpp"
#include "sim/experiment.hpp"
#include "sim/run_cache.hpp"
#include "telemetry/interval_recorder.hpp"

namespace esteem::sim {
namespace {

// 512 KB L2 with 5 us retention (10k cycles) and 20k-cycle intervals:
// refresh epochs, RPV phases and interval boundaries all fire many times
// per run, so every lane's own clock shows in its outcome.
SystemConfig tiny() {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 20'000;
  cfg.esteem.sampling_ratio = 32;
  cfg.esteem.a_min = 2;
  return cfg;
}

const std::vector<Technique> kRefreshOnly{
    Technique::BaselinePeriodicAll, Technique::PeriodicValid, Technique::RefrintRPV,
    Technique::SmartRefresh, Technique::EccExtended};

RunSpec spec_for(const std::string& bench, Technique technique, std::uint64_t seed,
                 const SystemConfig& cfg = tiny()) {
  RunSpec spec;
  spec.config = cfg;
  spec.technique = technique;
  spec.workload = {bench, {bench}};
  spec.seed = seed;
  spec.instr_per_core = 150'000;
  spec.warmup_instr_per_core = 30'000;
  return spec;
}

void expect_same_series(const telemetry::IntervalRecorder& fused,
                        const telemetry::IntervalRecorder& alone) {
  ASSERT_EQ(fused.columns(), alone.columns());
  ASSERT_EQ(fused.rows(), alone.rows());
  for (std::size_t r = 0; r < alone.rows(); ++r) {
    EXPECT_EQ(fused.cycle(r), alone.cycle(r)) << "row " << r;
    for (std::size_t c = 0; c < alone.columns().size(); ++c) {
      EXPECT_EQ(fused.value(r, c), alone.value(r, c))
          << alone.columns()[c] << " row " << r;
    }
  }
}

// One workload per profile class: cache-resident, streaming, phased,
// non-LRU and pointer-chasing.
class FusedEqualsAlone : public ::testing::TestWithParam<const char*> {};

TEST_P(FusedEqualsAlone, OutcomesAndIntervalSeriesMatch) {
  for (const std::uint64_t seed : {42u, 7u}) {
    std::vector<RunSpec> group;
    for (Technique t : kRefreshOnly) group.push_back(spec_for(GetParam(), t, seed));
    std::vector<telemetry::IntervalRecorder> series(group.size());
    std::vector<telemetry::IntervalRecorder*> series_ptrs;
    for (auto& s : series) series_ptrs.push_back(&s);

    const std::vector<RunOutcome> fused = run_experiment(group, series_ptrs);
    ASSERT_EQ(fused.size(), group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      SCOPED_TRACE(std::string(to_string(group[i].technique)) + " seed " +
                   std::to_string(seed));
      telemetry::IntervalRecorder alone_series;
      const RunOutcome alone = run_experiment(group[i], &alone_series);
      EXPECT_EQ(outcome_digest(fused[i]), outcome_digest(alone));
      EXPECT_EQ(fused[i].raw.wall_cycles, alone.raw.wall_cycles);
      EXPECT_EQ(fused[i].raw.refreshes, alone.raw.refreshes);
      EXPECT_GT(alone_series.rows(), 2u);
      expect_same_series(series[i], alone_series);
    }
    // The lanes really run on different clocks: refresh-only techniques
    // change timing, not hits.
    EXPECT_NE(fused[0].raw.refreshes, fused[2].raw.refreshes);
    EXPECT_EQ(fused[0].raw.mem_stats.demand_l2_misses,
              fused[2].raw.mem_stats.demand_l2_misses);
  }
}

INSTANTIATE_TEST_SUITE_P(ProfileClasses, FusedEqualsAlone,
                         ::testing::Values("gamess", "libquantum", "h264ref", "omnetpp",
                                           "mcf"));

// Every technique in one pass: the five refresh-only lanes on one
// hierarchy, ESTEEM, RPD and Cache Decay on one each. Seed 42 lists a lane
// first, seed 7 lists ESTEEM first, so each layout of hierarchies is run.
class SharedStreamEqualsAlone : public ::testing::TestWithParam<const char*> {};

TEST_P(SharedStreamEqualsAlone, OutcomesAndIntervalSeriesMatch) {
  for (const std::uint64_t seed : {42u, 7u}) {
    const std::vector<Technique> order =
        seed == 42
            ? std::vector<Technique>{Technique::BaselinePeriodicAll, Technique::Esteem,
                                     Technique::PeriodicValid,       Technique::RefrintRPD,
                                     Technique::RefrintRPV,          Technique::CacheDecay,
                                     Technique::SmartRefresh,        Technique::EccExtended}
            : std::vector<Technique>{Technique::Esteem,       Technique::EccExtended,
                                     Technique::SmartRefresh, Technique::CacheDecay,
                                     Technique::RefrintRPV,   Technique::RefrintRPD,
                                     Technique::PeriodicValid, Technique::BaselinePeriodicAll};
    std::vector<RunSpec> group;
    for (Technique t : order) group.push_back(spec_for(GetParam(), t, seed));
    std::vector<telemetry::IntervalRecorder> series(group.size());
    std::vector<telemetry::IntervalRecorder*> series_ptrs;
    for (auto& s : series) series_ptrs.push_back(&s);

    const std::vector<RunOutcome> fused = run_experiment(group, series_ptrs);
    ASSERT_EQ(fused.size(), group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      SCOPED_TRACE(std::string(to_string(group[i].technique)) + " seed " +
                   std::to_string(seed));
      telemetry::IntervalRecorder alone_series;
      const RunOutcome alone = run_experiment(group[i], &alone_series);
      EXPECT_EQ(outcome_digest(fused[i]), outcome_digest(alone));
      EXPECT_EQ(fused[i].raw.wall_cycles, alone.raw.wall_cycles);
      EXPECT_EQ(fused[i].raw.mem_stats.demand_l2_misses,
                alone.raw.mem_stats.demand_l2_misses);
      EXPECT_GT(alone_series.rows(), 2u);
      expect_same_series(series[i], alone_series);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ProfileClasses, SharedStreamEqualsAlone,
                         ::testing::Values("gamess", "libquantum", "h264ref", "omnetpp",
                                           "mcf"));

TEST(Fusion, PredicatesAdmitOnlySingleCoreExhaustiveFaultFreeRuns) {
  const RunSpec base = spec_for("gamess", Technique::BaselinePeriodicAll, 42);
  EXPECT_TRUE(cpu::shares_stream(base.config));
  for (Technique t : kRefreshOnly) {
    EXPECT_TRUE(cpu::fusable(base.config, t)) << to_string(t);
    EXPECT_TRUE(can_fuse(base, spec_for("gamess", t, 42))) << to_string(t);
  }
  // Techniques that mutate the L2 on their own clock share the stream, but
  // not a hierarchy.
  for (Technique t : {Technique::Esteem, Technique::RefrintRPD, Technique::CacheDecay}) {
    EXPECT_FALSE(cpu::fusable(base.config, t)) << to_string(t);
    EXPECT_TRUE(can_fuse(base, spec_for("gamess", t, 42))) << to_string(t);
    EXPECT_THROW(cpu::MemorySystem(base.config, std::vector<Technique>{
                                                    Technique::BaselinePeriodicAll, t}),
                 std::invalid_argument)
        << to_string(t);
  }

  // Dual-core, faults-on and sampled configs share neither a stream nor a
  // pass, whatever the technique.
  SystemConfig dual = tiny();
  dual.ncores = 2;
  SystemConfig faults = tiny();
  faults.faults.enabled = true;
  SystemConfig sampled = tiny();
  sampled.sampling.enabled = true;
  for (const SystemConfig& cfg : {dual, faults, sampled}) {
    EXPECT_FALSE(cpu::shares_stream(cfg));
    for (Technique t : kRefreshOnly) EXPECT_FALSE(cpu::fusable(cfg, t)) << to_string(t);
    EXPECT_THROW(cpu::System(cfg, {Technique::BaselinePeriodicAll, Technique::Esteem},
                             std::vector<std::string>(cfg.ncores, "gamess"), 42),
                 std::invalid_argument);
  }
  RunSpec dual_base = spec_for("gamess", Technique::BaselinePeriodicAll, 42, dual);
  dual_base.workload = {"gamess+mcf", {"gamess", "mcf"}};
  for (Technique t : {Technique::RefrintRPV, Technique::Esteem}) {
    RunSpec dual_other = dual_base;
    dual_other.technique = t;
    EXPECT_FALSE(can_fuse(dual_base, dual_other)) << to_string(t);
    EXPECT_THROW(run_experiment(std::vector<RunSpec>{dual_base, dual_other}),
                 std::invalid_argument);
  }
  EXPECT_THROW(cpu::MemorySystem(dual, std::vector<Technique>{
                                           Technique::BaselinePeriodicAll,
                                           Technique::RefrintRPV}),
               std::invalid_argument);
  for (const SystemConfig& cfg : {faults, sampled}) {
    const RunSpec b = spec_for("gamess", Technique::BaselinePeriodicAll, 42, cfg);
    for (Technique t : {Technique::RefrintRPV, Technique::Esteem}) {
      EXPECT_FALSE(can_fuse(b, spec_for("gamess", t, 42, cfg))) << to_string(t);
      EXPECT_THROW(run_experiment(std::vector<RunSpec>{b, spec_for("gamess", t, 42, cfg)}),
                   std::invalid_argument);
    }
  }

  // Any technique, but not the same stream otherwise: another seed,
  // workload, budget or config.
  for (Technique t : {Technique::RefrintRPV, Technique::Esteem}) {
    RunSpec other = spec_for("gamess", t, 42);
    other.seed = 7;
    EXPECT_FALSE(can_fuse(base, other));
    other = spec_for("mcf", t, 42);
    EXPECT_FALSE(can_fuse(base, other));
    other = spec_for("gamess", t, 42);
    other.instr_per_core += 1;
    EXPECT_FALSE(can_fuse(base, other));
    other = spec_for("gamess", t, 42);
    other.warmup_instr_per_core += 1;
    EXPECT_FALSE(can_fuse(base, other));
    other = spec_for("gamess", t, 42);
    other.config.energy.refresh_scale = 2.0;
    EXPECT_FALSE(can_fuse(base, other));
    EXPECT_THROW(run_experiment(std::vector<RunSpec>{base, other}), std::invalid_argument);
  }
}

}  // namespace
}  // namespace esteem::sim
