// Tests for the RunOutcome memo cache: fingerprint stability/sensitivity,
// hit-equals-fresh-run, exception semantics, disk persistence, and counted
// store failures.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include "sim/experiment.hpp"
#include "sim/run_cache.hpp"

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

RunSpec tiny_spec(const std::string& benchmark = "gamess",
                  Technique technique = Technique::Esteem) {
  RunSpec spec;
  spec.config = tiny();
  spec.technique = technique;
  spec.workload = {benchmark, {benchmark}};
  spec.instr_per_core = 120'000;
  spec.warmup_instr_per_core = 20'000;
  return spec;
}

void expect_same_outcome(const RunOutcome& a, const RunOutcome& b) {
  // Exact comparisons on purpose: the cache promises bit-identical results.
  EXPECT_EQ(a.raw.ipc, b.raw.ipc);
  EXPECT_EQ(a.raw.instr_per_core, b.raw.instr_per_core);
  EXPECT_EQ(a.raw.total_instructions, b.raw.total_instructions);
  EXPECT_EQ(a.raw.wall_cycles, b.raw.wall_cycles);
  EXPECT_EQ(a.raw.refreshes, b.raw.refreshes);
  EXPECT_EQ(a.raw.demand_misses, b.raw.demand_misses);
  EXPECT_EQ(a.raw.avg_active_ratio, b.raw.avg_active_ratio);
  EXPECT_EQ(a.raw.disabled_slots, b.raw.disabled_slots);
  EXPECT_EQ(a.raw.timeline.size(), b.raw.timeline.size());
  EXPECT_EQ(a.energy.leak_l2_j, b.energy.leak_l2_j);
  EXPECT_EQ(a.energy.dyn_l2_j, b.energy.dyn_l2_j);
  EXPECT_EQ(a.energy.refresh_l2_j, b.energy.refresh_l2_j);
  EXPECT_EQ(a.energy.ecc_l2_j, b.energy.ecc_l2_j);
  EXPECT_EQ(a.energy.mm_j, b.energy.mm_j);
  EXPECT_EQ(a.energy.algo_j, b.energy.algo_j);
}

TEST(RunCacheFingerprint, StableForEqualSpecs) {
  const RunSpec a = tiny_spec();
  const RunSpec b = tiny_spec();
  EXPECT_EQ(run_spec_fingerprint(a), run_spec_fingerprint(b));
  EXPECT_EQ(fingerprint_hash(run_spec_fingerprint(a)),
            fingerprint_hash(run_spec_fingerprint(b)));
}

TEST(RunCacheFingerprint, SensitiveToEveryRunKnob) {
  const std::string base = run_spec_fingerprint(tiny_spec());

  RunSpec s = tiny_spec();
  s.technique = Technique::RefrintRPV;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.seed = 43;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.instr_per_core += 1;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.warmup_instr_per_core += 1;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.record_timeline = true;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.workload.benchmarks[0] = "gobmk";
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.config.esteem.alpha += 0.01;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.config.edram.retention_us += 1.0;
  EXPECT_NE(run_spec_fingerprint(s), base);

  s = tiny_spec();
  s.config.faults.enabled = !s.config.faults.enabled;
  EXPECT_NE(run_spec_fingerprint(s), base);
}

TEST(RunCache, HitIsIdenticalToFreshRun) {
  auto& cache = RunCache::instance();
  cache.set_disk_dir("");
  cache.clear();

  const RunSpec spec = tiny_spec();
  const RunOutcome fresh = run_experiment(spec);

  const auto first = run_experiment_cached(spec);
  const auto second = run_experiment_cached(spec);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());  // hit shares the same object
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.entries(), 1u);
  expect_same_outcome(*first, fresh);
}

TEST(RunCache, ExceptionsAreNotCached) {
  auto& cache = RunCache::instance();
  cache.set_disk_dir("");
  cache.clear();

  const RunSpec spec = tiny_spec("no-such-benchmark");
  EXPECT_ANY_THROW(run_experiment_cached(spec));
  EXPECT_ANY_THROW(run_experiment_cached(spec));  // retried, not poisoned
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.entries(), 0u);
}

TEST(RunCacheDigest, StableAndSensitive) {
  const RunOutcome a = run_experiment(tiny_spec());
  const RunOutcome b = run_experiment(tiny_spec());
  EXPECT_EQ(outcome_digest(a), outcome_digest(b));  // deterministic simulator

  const RunOutcome other = run_experiment(tiny_spec("gamess", Technique::RefrintRPV));
  EXPECT_NE(outcome_digest(a), outcome_digest(other));
}

TEST(RunCache, DiskPersistenceRoundTrip) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "esteem-memo-test";
  fs::remove_all(dir);

  auto& cache = RunCache::instance();
  cache.clear();
  cache.set_disk_dir(dir.string());

  const RunSpec spec = tiny_spec("gobmk");
  const auto first = run_experiment_cached(spec);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(cache.stats().disk_stores, 1u);
  ASSERT_FALSE(fs::is_empty(dir));

  cache.clear();  // drop the in-memory map; the memo file survives
  const auto reloaded = run_experiment_cached(spec);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  expect_same_outcome(*reloaded, *first);

  cache.set_disk_dir("");
  cache.clear();
  fs::remove_all(dir);
}

// Shared scaffolding for the self-healing tests: run once against a temp
// memo dir, hand the single memo file to `damage`, then re-run and assert
// the damaged file was quarantined and the outcome recomputed bit-exactly.
void expect_quarantine_heals(
    const std::string& scratch_name,
    const std::function<void(const std::filesystem::path&)>& damage) {
  namespace fs = std::filesystem;
  // Per-test scratch dir: ctest runs each case as its own process, possibly
  // concurrently, so a shared dir would be stomped mid-test.
  const fs::path dir = fs::temp_directory_path() / scratch_name;
  fs::remove_all(dir);

  auto& cache = RunCache::instance();
  cache.clear();
  cache.set_disk_dir(dir.string());

  const RunSpec spec = tiny_spec("libquantum");
  const auto first = run_experiment_cached(spec);
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(cache.stats().disk_stores, 1u);

  fs::path memo_file;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) memo_file = entry.path();
  }
  ASSERT_FALSE(memo_file.empty());
  damage(memo_file);

  cache.clear();  // force the next lookup through the damaged file
  const auto healed = run_experiment_cached(spec);
  ASSERT_NE(healed, nullptr);
  EXPECT_EQ(cache.stats().quarantined, 1u);
  EXPECT_EQ(cache.stats().disk_hits, 0u);  // damaged file never served
  EXPECT_EQ(cache.stats().disk_stores, 1u);  // recomputed and re-spilled
  expect_same_outcome(*healed, *first);

  // The damaged file was moved aside for post-mortem, not silently deleted
  // (its original path now holds the freshly recomputed memo).
  const fs::path corrupt_dir = dir / "corrupt";
  ASSERT_TRUE(fs::exists(corrupt_dir));
  EXPECT_FALSE(fs::is_empty(corrupt_dir));

  // The healed store is valid: a third process-restart-equivalent lookup
  // hits disk cleanly.
  cache.clear();
  const auto reloaded = run_experiment_cached(spec);
  ASSERT_NE(reloaded, nullptr);
  EXPECT_EQ(cache.stats().disk_hits, 1u);
  EXPECT_EQ(cache.stats().quarantined, 0u);
  expect_same_outcome(*reloaded, *first);

  cache.set_disk_dir("");
  cache.clear();
  fs::remove_all(dir);
}

TEST(RunCacheHealing, TruncatedMemoIsQuarantinedAndRecomputed) {
  expect_quarantine_heals("esteem-memo-heal-header", [](const std::filesystem::path& file) {
    std::filesystem::resize_file(file, 10);  // tears through the header
  });
}

TEST(RunCacheHealing, TruncatedPayloadFailsCrcAndHeals) {
  expect_quarantine_heals("esteem-memo-heal-payload", [](const std::filesystem::path& file) {
    const auto size = std::filesystem::file_size(file);
    ASSERT_GT(size, 100u);
    std::filesystem::resize_file(file, size - 17);  // header intact, payload torn
  });
}

TEST(RunCacheHealing, BitFlippedMemoIsQuarantinedAndRecomputed) {
  expect_quarantine_heals("esteem-memo-heal-bitflip", [](const std::filesystem::path& file) {
    std::fstream io(file, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(200, std::ios::beg);  // deep inside the CRC-protected payload
    char byte = 0;
    io.seekg(200, std::ios::beg);
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    io.seekp(200, std::ios::beg);
    io.write(&byte, 1);
  });
}

TEST(RunCacheHealing, BadMagicIsQuarantinedAndRecomputed) {
  expect_quarantine_heals("esteem-memo-heal-magic", [](const std::filesystem::path& file) {
    std::fstream io(file, std::ios::in | std::ios::out | std::ios::binary);
    const char garbage[8] = {'n', 'o', 't', 'a', 'm', 'e', 'm', 'o'};
    io.write(garbage, sizeof garbage);
  });
}

// A spill that cannot land must be counted, not dropped silently: the memo
// directory is what a resumed sweep restores from. A directory squatting on
// the temp-file name makes open() fail with EISDIR, even for root.
TEST(RunCacheStore, UnopenableTempFileIsCountedAndOutcomeReturned) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "esteem-memo-store-tmp";
  fs::remove_all(dir);
  const RunSpec spec = tiny_spec("gamess");
  char name[48];
  std::snprintf(name, sizeof name, "esteem-memo-%016llx.bin.tmp",
                static_cast<unsigned long long>(
                    fingerprint_hash(run_spec_fingerprint(spec))));
  fs::create_directories(dir / name);

  RunCache cache;
  cache.set_disk_dir(dir.string());
  const auto outcome = cache.get_or_run(spec);
  ASSERT_NE(outcome, nullptr);
  EXPECT_EQ(cache.stats().store_errors, 1u);
  EXPECT_EQ(cache.stats().disk_stores, 0u);
  expect_same_outcome(*outcome, run_experiment(spec));
  fs::remove_all(dir);
}

// The memo directory itself cannot be created (its parent is a regular
// file): counted as a store error, and the run still succeeds.
TEST(RunCacheStore, UncreatableDirIsCountedAndOutcomeReturned) {
  namespace fs = std::filesystem;
  const fs::path blocker = fs::temp_directory_path() / "esteem-memo-store-blocker";
  fs::remove_all(blocker);
  std::ofstream(blocker) << "not a directory";

  RunCache cache;
  cache.set_disk_dir((blocker / "memo").string());
  ASSERT_NE(cache.get_or_run(tiny_spec("gamess")), nullptr);
  EXPECT_EQ(cache.stats().store_errors, 1u);
  EXPECT_EQ(cache.stats().disk_stores, 0u);
  fs::remove(blocker);
}

}  // namespace
}  // namespace esteem::sim
