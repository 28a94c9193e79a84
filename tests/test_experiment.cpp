// Tests for the experiment/comparison layer, sweep runner, and reports.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"

namespace esteem::sim {
namespace {

SystemConfig tiny() {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 100'000;
  cfg.esteem.sampling_ratio = 32;
  cfg.esteem.a_min = 2;
  return cfg;
}

trace::Workload wl(const std::string& name) { return {name, {name}}; }

TEST(Metrics, WeightedAndFairSpeedup) {
  const std::vector<double> base{1.0, 2.0};
  const std::vector<double> tech{1.2, 2.0};
  EXPECT_DOUBLE_EQ(weighted_speedup(base, tech), (1.2 + 1.0) / 2.0);
  EXPECT_DOUBLE_EQ(fair_speedup(base, tech), 2.0 / (1.0 / 1.2 + 1.0));
  EXPECT_DOUBLE_EQ(weighted_speedup(base, base), 1.0);
  const std::vector<double> one{1.0};
  const std::vector<double> none;
  EXPECT_THROW(weighted_speedup(base, one), std::invalid_argument);
  EXPECT_THROW(weighted_speedup(none, none), std::invalid_argument);
}

TEST(Metrics, PerKiloInstructions) {
  EXPECT_DOUBLE_EQ(per_kilo_instructions(500, 1'000'000), 0.5);
  EXPECT_DOUBLE_EQ(per_kilo_instructions(5, 0), 0.0);
}

TEST(Technique, ParseRoundTrips) {
  for (Technique t : all_techniques()) {
    EXPECT_EQ(parse_technique(to_string(t)), t);
  }
  EXPECT_THROW(parse_technique("bogus"), std::invalid_argument);
}

TEST(Experiment, RunProducesEnergy) {
  RunSpec spec;
  spec.config = tiny();
  spec.technique = Technique::BaselinePeriodicAll;
  spec.workload = wl("gamess");
  spec.instr_per_core = 150'000;
  const RunOutcome out = run_experiment(spec);
  EXPECT_GT(out.energy.total_j(), 0.0);
  EXPECT_GT(out.energy.refresh_l2_j, 0.0);
  EXPECT_GT(out.energy.leak_l2_j, 0.0);
  EXPECT_GT(out.energy.mm_j, 0.0);
  EXPECT_DOUBLE_EQ(out.energy.algo_j, 0.0);  // baseline: E_Algo = 0 (§6.3)
}

TEST(Experiment, CompareAgainstSelfIsNeutral) {
  RunSpec spec;
  spec.config = tiny();
  spec.technique = Technique::BaselinePeriodicAll;
  spec.workload = wl("bzip2");
  spec.instr_per_core = 100'000;
  const RunOutcome out = run_experiment(spec);
  const TechniqueComparison c =
      compare("bzip2", Technique::BaselinePeriodicAll, out, out);
  EXPECT_DOUBLE_EQ(c.energy_saving_pct, 0.0);
  EXPECT_DOUBLE_EQ(c.weighted_speedup, 1.0);
  EXPECT_DOUBLE_EQ(c.rpki_decrease, 0.0);
  EXPECT_DOUBLE_EQ(c.mpki_increase, 0.0);
}

TEST(Experiment, EsteemSavesEnergyOnCacheFriendlyWorkload) {
  RunSpec spec;
  spec.config = tiny();
  spec.technique = Technique::Esteem;
  spec.workload = wl("gamess");
  spec.instr_per_core = 400'000;
  const TechniqueComparison c = run_and_compare(spec);
  EXPECT_GT(c.energy_saving_pct, 0.0);
  EXPECT_GT(c.rpki_decrease, 0.0);
  EXPECT_LT(c.active_ratio_pct, 100.0);
  // Scaled-down runs exaggerate reconfiguration overhead relative to the
  // interval's useful work, so only require the slowdown stays moderate.
  EXPECT_GE(c.weighted_speedup, 0.7);
}

TEST(Sweep, ResolveThreads) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(3), 3u);
}

TEST(Sweep, RunsAllWorkloadsAndTechniques) {
  SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {wl("gamess"), wl("gobmk"), wl("libquantum")};
  spec.techniques = {Technique::Esteem, Technique::RefrintRPV};
  spec.instr_per_core = 120'000;

  const SweepResult result = run_sweep(spec);
  ASSERT_EQ(result.rows.size(), 3u);
  for (const WorkloadRow& row : result.rows) {
    ASSERT_EQ(row.comparisons.size(), 2u);
    EXPECT_EQ(row.comparisons[0].technique, Technique::Esteem);
    EXPECT_EQ(row.comparisons[1].technique, Technique::RefrintRPV);
    // RPV never turns off cache; its active ratio stays 100 and MPKI delta 0.
    EXPECT_DOUBLE_EQ(row.comparisons[1].active_ratio_pct, 100.0);
    EXPECT_NEAR(row.comparisons[1].mpki_increase, 0.0, 1e-9);
  }

  const TechniqueComparison avg = result.summary(Technique::Esteem);
  double manual = 0.0;
  for (const auto& row : result.rows) manual += row.comparisons[0].energy_saving_pct;
  EXPECT_NEAR(avg.energy_saving_pct, manual / 3.0, 1e-9);
  EXPECT_THROW(result.summary(Technique::RefrintRPD), std::invalid_argument);
}

TEST(Sweep, SerialAndThreadedSchedulesAreBitIdentical) {
  SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {wl("gamess"), wl("gobmk"), wl("libquantum"), wl("omnetpp")};
  spec.techniques = {Technique::Esteem, Technique::RefrintRPV};
  spec.instr_per_core = 100'000;

  // The memo cache would make the second sweep a trivial replay of the
  // first; clear it before each so both actually execute their schedule.
  spec.threads = 1;
  RunCache::instance().clear();
  const SweepResult serial = run_sweep(spec);
  spec.threads = 4;
  RunCache::instance().clear();
  const SweepResult threaded = run_sweep(spec);

  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  ASSERT_EQ(serial.rows.size(), threaded.rows.size());
  for (std::size_t w = 0; w < serial.rows.size(); ++w) {
    const WorkloadRow& a = serial.rows[w];
    const WorkloadRow& b = threaded.rows[w];
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.completed, b.completed);
    ASSERT_EQ(a.comparisons.size(), b.comparisons.size());
    for (std::size_t t = 0; t < a.comparisons.size(); ++t) {
      const TechniqueComparison& x = a.comparisons[t];
      const TechniqueComparison& y = b.comparisons[t];
      EXPECT_EQ(x.workload, y.workload);
      EXPECT_EQ(x.technique, y.technique);
      // Exact double equality on purpose: the runner promises bit-identical
      // rows regardless of schedule.
      EXPECT_EQ(x.energy_saving_pct, y.energy_saving_pct);
      EXPECT_EQ(x.weighted_speedup, y.weighted_speedup);
      EXPECT_EQ(x.fair_speedup, y.fair_speedup);
      EXPECT_EQ(x.rpki_base, y.rpki_base);
      EXPECT_EQ(x.rpki_tech, y.rpki_tech);
      EXPECT_EQ(x.rpki_decrease, y.rpki_decrease);
      EXPECT_EQ(x.mpki_base, y.mpki_base);
      EXPECT_EQ(x.mpki_tech, y.mpki_tech);
      EXPECT_EQ(x.mpki_increase, y.mpki_increase);
      EXPECT_EQ(x.active_ratio_pct, y.active_ratio_pct);
      EXPECT_EQ(x.ecc_corrected_reads, y.ecc_corrected_reads);
      EXPECT_EQ(x.fault_refetches, y.fault_refetches);
      EXPECT_EQ(x.fault_data_loss, y.fault_data_loss);
      EXPECT_EQ(x.fault_disabled_lines, y.fault_disabled_lines);
      EXPECT_EQ(x.correction_rpki, y.correction_rpki);
    }
  }
}

TEST(Sweep, SurvivesThrowingWorkloadSerial) {
  SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {wl("gamess"), wl("no-such-benchmark"), wl("gobmk")};
  spec.techniques = {Technique::RefrintRPV};
  spec.instr_per_core = 80'000;
  spec.threads = 1;

  const SweepResult result = run_sweep(spec);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.rows.size(), 3u);
  EXPECT_TRUE(result.rows[0].completed);
  EXPECT_FALSE(result.rows[1].completed);
  EXPECT_TRUE(result.rows[2].completed);

  // The failure is recorded, attributed, and carries the cause.
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].workload, "no-such-benchmark");
  EXPECT_EQ(result.errors[0].technique, "baseline");  // threw in baseline run
  EXPECT_NE(result.errors[0].what.find("no-such-benchmark"), std::string::npos);

  // Averages skip the errored row instead of reading garbage.
  const TechniqueComparison avg = result.summary(Technique::RefrintRPV);
  double manual = 0.0;
  manual += result.rows[0].comparisons[0].energy_saving_pct;
  manual += result.rows[2].comparisons[0].energy_saving_pct;
  EXPECT_NEAR(avg.energy_saving_pct, manual / 2.0, 1e-9);

  // Every workload failing still runs the whole matrix: one error per
  // workload, no row skipped, not interrupted.
  spec.workloads = {wl("no-such-1"), wl("no-such-2"), wl("no-such-3")};
  const SweepResult all_bad = run_sweep(spec);
  EXPECT_EQ(all_bad.errors.size(), 3u);
  EXPECT_FALSE(all_bad.interrupted);
  for (const WorkloadRow& row : all_bad.rows) EXPECT_FALSE(row.skipped);
}

TEST(Sweep, SurvivesThrowingWorkloadThreaded) {
  SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {wl("bogus-one"), wl("gamess"), wl("bogus-two")};
  spec.techniques = {Technique::RefrintRPV};
  spec.instr_per_core = 80'000;
  spec.threads = 3;  // exceptions must not escape worker threads

  const SweepResult result = run_sweep(spec);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.errors.size(), 2u);
  EXPECT_FALSE(result.rows[0].completed);
  EXPECT_TRUE(result.rows[1].completed);
  EXPECT_FALSE(result.rows[2].completed);
  EXPECT_NO_THROW(result.summary(Technique::RefrintRPV));

  // Every workload failing still runs the whole matrix: one error per
  // workload, no row skipped, not interrupted.
  spec.workloads = {wl("no-such-1"), wl("no-such-2"), wl("no-such-3")};
  const SweepResult all_bad = run_sweep(spec);
  EXPECT_EQ(all_bad.errors.size(), 3u);
  EXPECT_FALSE(all_bad.interrupted);
  for (const WorkloadRow& row : all_bad.rows) EXPECT_FALSE(row.skipped);
}

// Satellite of the bit-identity promise: the *failure* path is also
// schedule-independent — same rows, same errors, same attribution, same
// CSV bytes, whether the sweep ran serially or threaded.
TEST(Sweep, FailurePathSerialAndThreadedAreIdentical) {
  SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {wl("gamess"), wl("no-such-benchmark"), wl("gobmk")};
  spec.techniques = {Technique::Esteem, Technique::RefrintRPV};
  spec.instr_per_core = 80'000;

  spec.threads = 1;
  RunCache::instance().clear();
  const SweepResult serial = run_sweep(spec);
  spec.threads = 4;
  RunCache::instance().clear();
  const SweepResult threaded = run_sweep(spec);

  EXPECT_FALSE(serial.ok());
  EXPECT_FALSE(threaded.ok());
  ASSERT_EQ(serial.errors.size(), threaded.errors.size());
  for (std::size_t e = 0; e < serial.errors.size(); ++e) {
    EXPECT_EQ(serial.errors[e].workload, threaded.errors[e].workload);
    EXPECT_EQ(serial.errors[e].technique, threaded.errors[e].technique);
    EXPECT_EQ(serial.errors[e].what, threaded.errors[e].what);
  }

  ASSERT_EQ(serial.rows.size(), threaded.rows.size());
  for (std::size_t w = 0; w < serial.rows.size(); ++w) {
    EXPECT_EQ(serial.rows[w].completed, threaded.rows[w].completed);
    if (!serial.rows[w].completed) continue;
    ASSERT_EQ(serial.rows[w].comparisons.size(),
              threaded.rows[w].comparisons.size());
    for (std::size_t t = 0; t < serial.rows[w].comparisons.size(); ++t) {
      EXPECT_EQ(serial.rows[w].comparisons[t].energy_saving_pct,
                threaded.rows[w].comparisons[t].energy_saving_pct);
      EXPECT_EQ(serial.rows[w].comparisons[t].weighted_speedup,
                threaded.rows[w].comparisons[t].weighted_speedup);
    }
  }

  const std::string serial_csv = "test_failure_serial.csv";
  const std::string threaded_csv = "test_failure_threaded.csv";
  write_csv(serial, serial_csv);
  write_csv(threaded, threaded_csv);
  auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  EXPECT_EQ(slurp(serial_csv), slurp(threaded_csv));
  std::filesystem::remove(serial_csv);
  std::filesystem::remove(threaded_csv);
}

TEST(Sweep, SummaryThrowsWhenNothingCompleted) {
  SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {wl("bogus")};
  spec.techniques = {Technique::RefrintRPV};
  const SweepResult result = run_sweep(spec);
  ASSERT_FALSE(result.ok());
  EXPECT_THROW(result.summary(Technique::RefrintRPV), std::runtime_error);
}

TEST(Report, FigureReportFlagsErroredRows) {
  SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {wl("gamess"), wl("bogus")};
  spec.techniques = {Technique::RefrintRPV};
  spec.instr_per_core = 80'000;
  const SweepResult result = run_sweep(spec);
  const std::string report = figure_report(result, "Sweep");
  EXPECT_NE(report.find("ERROR"), std::string::npos);
  EXPECT_NE(report.find("errors (1):"), std::string::npos);
  EXPECT_NE(report.find("bogus [baseline]"), std::string::npos);
  EXPECT_NE(report.find("average"), std::string::npos);  // from completed rows

  // CSV emits only the completed rows.
  const std::string path = "test_report_errors.csv";
  write_csv(result, path);
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  bool mentions_bogus = false;
  while (std::getline(in, line)) {
    ++lines;
    mentions_bogus |= line.find("bogus") != std::string::npos;
  }
  EXPECT_EQ(lines, 2);  // header + gamess x rpv
  EXPECT_FALSE(mentions_bogus);
  std::filesystem::remove(path);
}

TEST(Sweep, Validation) {
  SweepSpec spec;
  spec.config = tiny();
  EXPECT_THROW(run_sweep(spec), std::invalid_argument);  // no workloads
  spec.workloads = {wl("gamess")};
  spec.techniques = {Technique::BaselinePeriodicAll};
  EXPECT_THROW(run_sweep(spec), std::invalid_argument);  // explicit baseline
  spec.techniques = {Technique::RefrintRPV, Technique::Esteem, Technique::RefrintRPV};
  EXPECT_THROW(run_sweep(spec), std::invalid_argument);  // technique listed twice
}

// Four rows, each one task over one reference stream (baseline, RPV,
// periodic-valid and Smart-Refresh on one hierarchy, ESTEEM on its own),
// claimed by four threads: every cell must equal its run alone.
// ThreadSanitizer runs this binary whole.
TEST(Sweep, ThreadedFusedRowsEqualRunsAlone) {
  SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {wl("gamess"), wl("libquantum"), wl("mcf"), wl("omnetpp")};
  spec.techniques = {Technique::Esteem, Technique::RefrintRPV, Technique::PeriodicValid,
                     Technique::SmartRefresh};
  spec.instr_per_core = 80'000;
  spec.warmup_instr_per_core = 20'000;
  spec.threads = 4;
  RunCache::instance().clear();
  ASSERT_TRUE(run_sweep(spec).ok());
  EXPECT_EQ(RunCache::instance().stats().misses, 20u);
  EXPECT_EQ(RunCache::instance().stats().hits, 0u);

  for (const trace::Workload& w : spec.workloads) {
    for (Technique t : {Technique::BaselinePeriodicAll, Technique::Esteem,
                        Technique::RefrintRPV, Technique::PeriodicValid,
                        Technique::SmartRefresh}) {
      const RunSpec rs = sweep_run_spec(spec, w, t);
      EXPECT_EQ(outcome_digest(*RunCache::instance().get_or_run(rs)),
                outcome_digest(run_experiment(rs)))
          << w.name << " " << to_string(t);
    }
  }
  RunCache::instance().clear();
}

TEST(Report, FigureReportMentionsWorkloadsAndAverage) {
  SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {wl("gamess"), wl("gobmk")};
  spec.techniques = {Technique::Esteem};
  spec.instr_per_core = 100'000;
  const SweepResult result = run_sweep(spec);
  const std::string report = figure_report(result, "Figure X");
  EXPECT_NE(report.find("Figure X"), std::string::npos);
  EXPECT_NE(report.find("gamess"), std::string::npos);
  EXPECT_NE(report.find("gobmk"), std::string::npos);
  EXPECT_NE(report.find("average"), std::string::npos);
  EXPECT_NE(report.find("esteem:energy%"), std::string::npos);
}

TEST(Report, CsvWritten) {
  SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {wl("gamess")};
  spec.techniques = {Technique::Esteem};
  spec.instr_per_core = 100'000;
  const SweepResult result = run_sweep(spec);
  const std::string path = "test_report_out.csv";
  write_csv(result, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 2);  // header + 1 workload x 1 technique
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace esteem::sim
