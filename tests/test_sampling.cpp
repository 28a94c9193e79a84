// Tests for the SMARTS-style systematic-sampling executor (src/sampling):
// estimator math, generator fast-forward exactness, functional-warming
// correctness, run determinism, memo-fingerprint keying, and the exhaustive
// CSV byte-identity pin that guards the default (non-sampled) path.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cpu/memory_system.hpp"
#include "sampling/estimator.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "trace/patterns.hpp"

namespace esteem::sampling {
namespace {

TEST(StudentT, TableAndAsymptote) {
  EXPECT_NEAR(student_t_975(1), 12.706, 0.01);
  EXPECT_NEAR(student_t_975(4), 2.776, 0.01);
  EXPECT_NEAR(student_t_975(10), 2.228, 0.01);
  EXPECT_NEAR(student_t_975(10'000), 1.96, 0.01);
}

TEST(SampleSeries, WelfordMatchesClosedForm) {
  SampleSeries s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.n(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(2.5), 1e-12);

  const Estimate e = s.estimate(10.0);
  EXPECT_DOUBLE_EQ(e.value, 30.0);
  // half_ci = scale * t_{4} * s / sqrt(n)
  EXPECT_NEAR(e.half_ci, 10.0 * student_t_975(4) * std::sqrt(2.5) / std::sqrt(5.0),
              1e-9);
  EXPECT_NEAR(e.relative(), e.half_ci / 30.0, 1e-12);
}

TEST(SampleSeries, SingleObservationHasZeroCi) {
  SampleSeries s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.estimate(2.0).value, 14.0);
  EXPECT_DOUBLE_EQ(s.estimate(2.0).half_ci, 0.0);
}

// --- Generator fast-forward: skip(n) must land exactly where n discarded
// pulls would for every deterministic pattern (the sampling executor's
// correctness rests on this).

void expect_skip_matches_discard(trace::BlockPattern& skipped,
                                 trace::BlockPattern& discarded,
                                 std::uint64_t n) {
  skipped.skip(n);
  for (std::uint64_t i = 0; i < n; ++i) (void)discarded.next_block();
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(skipped.next_block(), discarded.next_block()) << "post-skip pull " << i;
  }
}

TEST(PatternSkip, StreamingIsExact) {
  trace::StreamingPattern a(100, 12'345, 3);
  trace::StreamingPattern b(100, 12'345, 3);
  expect_skip_matches_discard(a, b, 54'321);
}

TEST(PatternSkip, PointerChaseIsExact) {
  trace::PointerChasePattern a(0, 4096, 7);
  trace::PointerChasePattern b(0, 4096, 7);
  expect_skip_matches_discard(a, b, 999'999);
}

TEST(PatternSkip, MultiScanIsExact) {
  const trace::GeneratorContext ctx{1024, 64};
  trace::MultiScanPattern a(0, {2, 5, 9}, ctx, 2, 128);
  trace::MultiScanPattern b(0, {2, 5, 9}, ctx, 2, 128);
  expect_skip_matches_discard(a, b, 77'777);
}

TEST(PatternSkip, PhasedIsExact) {
  auto mk = [] {
    std::vector<std::unique_ptr<trace::BlockPattern>> kids;
    kids.push_back(std::make_unique<trace::StreamingPattern>(0, 500, 1));
    kids.push_back(std::make_unique<trace::PointerChasePattern>(1000, 256, 11));
    return std::make_unique<trace::PhasedPattern>(std::move(kids), 333);
  };
  auto a = mk();
  auto b = mk();
  expect_skip_matches_discard(*a, *b, 10'007);
}

// --- Functional warming: with set_warming(true) the hierarchy's functional
// state (tags, LRU, demand counters, refresh epochs) must evolve exactly as
// in detailed mode — only timing side-effects (bank contention, memory
// channel occupancy/traffic) are suppressed.

TEST(Warming, FunctionalStateMatchesDetailed) {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{256ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.sampling_ratio = 32;

  cpu::MemorySystem warm(cfg, cpu::Technique::Esteem);
  cpu::MemorySystem detailed(cfg, cpu::Technique::Esteem);
  warm.set_warming(true);

  // A deterministic footprint with reuse and evictions.
  trace::PointerChasePattern pa(0, 16'384, 5);
  trace::PointerChasePattern pb(0, 16'384, 5);
  std::vector<block_t> blocks;
  cycle_t now = 0;
  for (int i = 0; i < 50'000; ++i) {
    const block_t blk = pa.next_block();
    (void)pb.next_block();
    blocks.push_back(blk);
    const bool store = (i % 7) == 0;
    now += 10;
    (void)warm.access(0, blk, store, now);
    (void)detailed.access(0, blk, store, now);
  }
  warm.set_warming(false);

  // Same lines present in both hierarchies, same demand behaviour. (Refresh
  // totals are clock-accruing, not functional: this driver ignores returned
  // latencies, so the detailed system's loaded memory-channel times advance
  // the refresh lane differently. The sampled executor drives the clock
  // itself; refresh correctness is covered by the accuracy gate.)
  for (std::size_t i = blocks.size() - 5'000; i < blocks.size(); ++i) {
    ASSERT_EQ(warm.l2().contains(blocks[i]), detailed.l2().contains(blocks[i]));
  }
  EXPECT_EQ(warm.stats().demand_l2_hits, detailed.stats().demand_l2_hits);
  EXPECT_EQ(warm.stats().demand_l2_misses, detailed.stats().demand_l2_misses);
  // ... while memory traffic was suppressed during warming.
  EXPECT_EQ(warm.mm_stats().reads, 0u);
  EXPECT_GT(detailed.mm_stats().reads, 0u);
}

}  // namespace
}  // namespace esteem::sampling

namespace esteem::sim {
namespace {

SystemConfig small_cfg() {
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

SamplingConfig small_sampling() {
  SamplingConfig sc;
  sc.enabled = true;
  sc.window_instr = 2'000;
  sc.detail_warm_instr = 500;
  sc.ff_warm_instr = 5'000;
  sc.cold_warm_instr = 20'000;
  sc.period_instr = 50'000;
  return sc;
}

RunSpec sampled_spec(const std::string& benchmark = "gamess",
                     Technique technique = Technique::Esteem) {
  RunSpec spec;
  spec.config = small_cfg();
  spec.config.sampling = small_sampling();
  spec.technique = technique;
  spec.workload = {benchmark, {benchmark}};
  spec.instr_per_core = 300'000;  // 6 periods
  spec.warmup_instr_per_core = 30'000;
  return spec;
}

TEST(SampledRun, DeterministicAcrossRuns) {
  const RunOutcome a = run_experiment(sampled_spec());
  const RunOutcome b = run_experiment(sampled_spec());

  ASSERT_TRUE(a.estimates.enabled);
  EXPECT_GE(a.estimates.windows, 2u);
  // Exact comparisons: same spec must be bit-identical, run to run.
  EXPECT_EQ(a.raw.ipc, b.raw.ipc);
  EXPECT_EQ(a.raw.wall_cycles, b.raw.wall_cycles);
  EXPECT_EQ(a.raw.refreshes, b.raw.refreshes);
  EXPECT_EQ(a.raw.counters.mm_accesses, b.raw.counters.mm_accesses);
  EXPECT_EQ(a.raw.avg_active_ratio, b.raw.avg_active_ratio);
  EXPECT_EQ(a.estimates.wall_cycles.value, b.estimates.wall_cycles.value);
  EXPECT_EQ(a.estimates.wall_cycles.half_ci, b.estimates.wall_cycles.half_ci);
  EXPECT_EQ(a.estimates.mm_accesses.value, b.estimates.mm_accesses.value);
  EXPECT_EQ(a.estimates.mm_accesses.half_ci, b.estimates.mm_accesses.half_ci);
  EXPECT_EQ(a.estimates.refreshes.value, b.estimates.refreshes.value);
  EXPECT_EQ(a.energy.total_j(), b.energy.total_j());
}

TEST(SampledRun, RejectsRunsShorterThanTwoPeriods) {
  RunSpec spec = sampled_spec();
  spec.instr_per_core = spec.config.sampling.period_instr;  // one period only
  EXPECT_THROW(run_experiment(spec), std::invalid_argument);
}

TEST(SampledRun, SerialSweepEqualsThreadedSweep) {
  SweepSpec spec;
  spec.config = small_cfg();
  spec.config.sampling = small_sampling();
  spec.workloads = {{"gamess", {"gamess"}}, {"milc", {"milc"}}};
  spec.techniques = {Technique::Esteem, Technique::RefrintRPV};
  spec.instr_per_core = 300'000;
  spec.warmup_instr_per_core = 30'000;

  spec.threads = 1;
  const SweepResult serial = run_sweep(spec);
  RunCache::instance().clear();  // force the threaded sweep to recompute
  spec.threads = 4;
  const SweepResult threaded = run_sweep(spec);

  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  ASSERT_EQ(serial.rows.size(), threaded.rows.size());
  for (std::size_t w = 0; w < serial.rows.size(); ++w) {
    ASSERT_EQ(serial.rows[w].comparisons.size(), threaded.rows[w].comparisons.size());
    for (std::size_t t = 0; t < serial.rows[w].comparisons.size(); ++t) {
      const TechniqueComparison& a = serial.rows[w].comparisons[t];
      const TechniqueComparison& b = threaded.rows[w].comparisons[t];
      EXPECT_EQ(a.sampled, b.sampled);
      EXPECT_EQ(a.energy_saving_pct, b.energy_saving_pct);
      EXPECT_EQ(a.weighted_speedup, b.weighted_speedup);
      EXPECT_EQ(a.active_ratio_pct, b.active_ratio_pct);
      EXPECT_EQ(a.energy_saving_ci, b.energy_saving_ci);
      EXPECT_EQ(a.weighted_speedup_ci, b.weighted_speedup_ci);
      EXPECT_EQ(a.active_ratio_ci, b.active_ratio_ci);
    }
  }
}

TEST(SampledRun, MulticoreClocksStayAligned) {
  // Regression: per-core CPI estimates differ, so analytic skips used to
  // skew the core clocks apart in time. The shared bank/channel model then
  // charged the skew to the lagging core's next access as queueing delay
  // (the ahead core's reservations sat millions of cycles in its future),
  // inflating its window CPI and widening the next skip — a divergent
  // feedback loop that sent dual-core wall clocks into the trillions.
  // Segment-boundary clock re-alignment bounds the sampled wall clock to
  // the same order as the exhaustive one.
  SystemConfig cfg = SystemConfig::dual_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 100'000;
  cfg.esteem.sampling_ratio = 32;
  cfg.esteem.a_min = 2;

  RunSpec spec;
  spec.config = cfg;
  spec.technique = Technique::Esteem;
  // Deliberately mismatched speeds: the fast/slow CPI gap maximises the
  // per-skip clock skew the alignment must absorb.
  spec.workload = {"GmH2", {"gamess", "h264ref"}};
  spec.instr_per_core = 300'000;
  spec.warmup_instr_per_core = 30'000;
  const RunOutcome exhaustive = run_experiment(spec);

  spec.config.sampling = small_sampling();
  const RunOutcome sampled = run_experiment(spec);

  ASSERT_TRUE(sampled.estimates.enabled);
  ASSERT_GT(exhaustive.raw.wall_cycles, 0u);
  const double wall_ratio = static_cast<double>(sampled.raw.wall_cycles) /
                            static_cast<double>(exhaustive.raw.wall_cycles);
  EXPECT_GT(wall_ratio, 0.5);
  EXPECT_LT(wall_ratio, 2.0);  // the divergence blew past this by 1000x+
  ASSERT_EQ(sampled.raw.ipc.size(), exhaustive.raw.ipc.size());
  for (std::size_t c = 0; c < sampled.raw.ipc.size(); ++c) {
    EXPECT_GT(sampled.raw.ipc[c], 0.25 * exhaustive.raw.ipc[c]);
    EXPECT_LT(sampled.raw.ipc[c], 4.0 * exhaustive.raw.ipc[c]);
  }
}

// --- Memoisation: [sampling] is semantic (it decides whether a run is
// exhaustive or sampled and shapes every estimate), so every knob must be
// keyed.

TEST(SamplingFingerprint, EveryKnobIsKeyed) {
  RunSpec base_spec = sampled_spec();
  base_spec.config.sampling.enabled = false;
  const std::string base = run_spec_fingerprint(base_spec);

  RunSpec s = base_spec;
  s.config.sampling.enabled = true;
  const std::string enabled = run_spec_fingerprint(s);
  EXPECT_NE(enabled, base);

  s = base_spec;
  s.config.sampling.enabled = true;
  s.config.sampling.window_instr += 1;
  EXPECT_NE(run_spec_fingerprint(s), enabled);

  s = base_spec;
  s.config.sampling.enabled = true;
  s.config.sampling.detail_warm_instr += 1;
  EXPECT_NE(run_spec_fingerprint(s), enabled);

  s = base_spec;
  s.config.sampling.enabled = true;
  s.config.sampling.ff_warm_instr += 1;
  EXPECT_NE(run_spec_fingerprint(s), enabled);

  s = base_spec;
  s.config.sampling.enabled = true;
  s.config.sampling.cold_warm_instr += 1;
  EXPECT_NE(run_spec_fingerprint(s), enabled);

  s = base_spec;
  s.config.sampling.enabled = true;
  s.config.sampling.period_instr += 1;
  EXPECT_NE(run_spec_fingerprint(s), enabled);
}

// The memo file carries the estimates too: a sampled outcome restored from
// disk has the digest (every serialized field) of the one that was stored.
TEST(SamplingMemo, SampledOutcomeRoundTripsThroughDisk) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "esteem-memo-sampled-test";
  fs::remove_all(dir);
  RunCache& cache = RunCache::instance();
  cache.clear();
  cache.set_disk_dir(dir.string());

  const RunSpec spec = sampled_spec();
  const std::shared_ptr<const RunOutcome> stored = run_experiment_cached(spec);
  ASSERT_TRUE(stored->estimates.enabled);
  cache.clear();  // the next lookup must come from the memo file
  const std::shared_ptr<const RunOutcome> restored = run_experiment_cached(spec);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  ASSERT_TRUE(restored->estimates.enabled);
  EXPECT_EQ(restored->estimates.ipc.size(), stored->estimates.ipc.size());
  EXPECT_EQ(outcome_digest(*restored), outcome_digest(*stored));

  cache.set_disk_dir("");
  cache.clear();
  fs::remove_all(dir);
}

// --- Exhaustive-mode regression pin: with [sampling] disabled (the default)
// the sweep CSV must stay byte-identical to the pre-sampling output. The
// expected text below was produced by `esteem_cli --sweep gamess,gobmk
// --techniques esteem,rpv --instr 200000 --warmup 40000` before the sampling
// executor landed; this test rebuilds the same SweepSpec the CLI does.

constexpr const char* kPinnedCsv =
    "workload,technique,energy_saving_pct,weighted_speedup,fair_speedup,"
    "rpki_base,rpki_tech,rpki_decrease,mpki_base,mpki_tech,mpki_increase,"
    "active_ratio_pct,ecc_corrected_reads,fault_refetches,fault_data_loss,"
    "fault_disabled_lines\n"
    "gamess,esteem,47.8491,1.0046,1.0046,983.04,3.85,979.19,0.7850,0.7850,"
    "0.0000,75.82,0,0,0,0\n"
    "gamess,rpv,43.7445,1.0046,1.0046,983.04,3.84,979.20,0.7850,0.7850,"
    "0.0000,100.00,0,0,0,0\n"
    "gobmk,esteem,40.6702,1.0196,1.0196,1310.72,14.62,1296.11,3.1300,3.1300,"
    "0.0000,59.10,0,0,0,0\n"
    "gobmk,rpv,34.8202,1.0196,1.0196,1310.72,11.09,1299.63,3.1300,3.1300,"
    "0.0000,100.00,0,0,0,0\n";

TEST(ExhaustiveCsv, ByteIdenticalToPrePaperSamplingPin) {
  constexpr instr_t kInstr = 200'000;
  // The CLI's paper-default policy for a single-core sweep: scale the
  // 10M-cycle interval to the shortened run.
  SystemConfig cfg = SystemConfig::single_core();
  apply_scaled_interval(cfg, kInstr);

  SweepSpec spec;
  spec.config = cfg;
  spec.workloads = {{"gamess", {"gamess"}}, {"gobmk", {"gobmk"}}};
  spec.techniques = {Technique::Esteem, Technique::RefrintRPV};
  spec.instr_per_core = kInstr;
  spec.warmup_instr_per_core = 40'000;

  const SweepResult result = run_sweep(spec);
  ASSERT_TRUE(result.ok());

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "esteem_test_pin.csv";
  write_csv(result, path.string());
  std::ifstream in(path, std::ios::binary);
  const std::string got((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  EXPECT_EQ(got, kPinnedCsv);
}

}  // namespace
}  // namespace esteem::sim
