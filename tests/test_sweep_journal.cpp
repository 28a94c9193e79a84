// Tests for crash-safe sweeps: the run-memo directory is the journal. A
// sweep run over a memo directory leaves every finished run there, and a
// rerun over the same directory restores those runs as disk hits. These
// tests pin subset -> superset resume, kill-and-resume, runs written under a
// different seed or energy scale restoring nothing, damaged memo files, and
// the deadline-on-resume rule, each against the CSV bytes of a fresh sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "resilience/shutdown.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"

namespace esteem::sim {
namespace {

namespace fs = std::filesystem;

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

SweepSpec tiny_sweep(std::vector<std::string> workloads) {
  SweepSpec spec;
  spec.config = tiny();
  for (const std::string& w : workloads) spec.workloads.push_back(wl(w));
  spec.techniques = {Technique::Esteem, Technique::RefrintRPV};
  spec.instr_per_core = 100'000;
  spec.warmup_instr_per_core = 20'000;
  spec.threads = 1;
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// A scratch memo directory installed as the process-wide cache's disk
/// tier. clear() between legs stands in for a fresh process: the in-memory
/// map and the counters go, the files stay.
class MemoDir {
 public:
  explicit MemoDir(const std::string& tag)
      : path_(fs::temp_directory_path() / ("esteem-sweep-resume-" + tag)) {
    fs::remove_all(path_);
    RunCache::instance().clear();
    RunCache::instance().set_disk_dir(path_.string());
  }
  ~MemoDir() {
    RunCache::instance().set_disk_dir("");
    RunCache::instance().clear();
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

  std::vector<fs::path> memo_files() const {
    std::vector<fs::path> out;
    if (!fs::exists(path_)) return out;
    for (const auto& entry : fs::directory_iterator(path_)) {
      if (entry.is_regular_file()) out.push_back(entry.path());
    }
    return out;
  }

  /// The sweep's CSV bytes (written next to the memo files, not in them).
  std::string csv(const SweepResult& result, const std::string& name) const {
    const std::string file = (path_.parent_path() / (path_.filename().string() +
                                                     "-" + name + ".csv"))
                                 .string();
    write_csv(result, file);
    std::string bytes = read_file(file);
    fs::remove(file);
    return bytes;
  }

 private:
  fs::path path_;
};

/// CSV bytes of `spec` swept in a cold process with no memo directory.
std::string fresh_csv(const SweepSpec& spec, const MemoDir& dir) {
  const std::string memo = RunCache::instance().disk_dir();
  RunCache::instance().set_disk_dir("");
  RunCache::instance().clear();
  const SweepResult result = run_sweep(spec);
  EXPECT_TRUE(result.ok());
  RunCache::instance().set_disk_dir(memo);
  RunCache::instance().clear();
  return dir.csv(result, "fresh");
}

/// Requests a graceful shutdown right after the memo store with index
/// `after` (0-based) is published: a SIGTERM landing mid-sweep, at a point
/// that is the same on every run.
class ShutdownAfterStore final : public chaos::FaultPlan {
 public:
  explicit ShutdownAfterStore(int after) : remaining_(after) {}
  chaos::Injection at(const std::string& point) override {
    if (point == "memo.crash.after_rename" && remaining_-- == 0) {
      resilience::request_shutdown();
    }
    return {};
  }

 private:
  int remaining_;
};

TEST(SweepJournal, JournaledSweepRestoresRowsBitExactly) {
  const MemoDir dir("rerun");
  const SweepSpec spec = tiny_sweep({"gamess", "gobmk"});
  const SweepResult first = run_sweep(spec);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(RunCache::instance().stats().disk_stores, 6u);
  EXPECT_EQ(dir.memo_files().size(), 6u);

  RunCache::instance().clear();
  const SweepResult again = run_sweep(spec);
  ASSERT_TRUE(again.ok());
  const RunCacheStats stats = RunCache::instance().stats();
  EXPECT_EQ(stats.disk_hits, 6u);  // every run restored, none simulated
  EXPECT_EQ(stats.disk_stores, 0u);
  EXPECT_EQ(dir.csv(again, "again"), dir.csv(first, "first"));
}

// Subset -> superset: the runs of a sweep over some workloads seed a later
// sweep over more of them, because a run's identity is its RunSpec, not the
// sweep it belonged to.
TEST(SweepJournal, SubsetThenSupersetMatchesFreshSweep) {
  const MemoDir dir("superset");
  const SweepSpec full = tiny_sweep({"gamess", "gobmk", "libquantum"});
  const std::string reference = fresh_csv(full, dir);

  ASSERT_TRUE(run_sweep(tiny_sweep({"gamess"})).ok());
  EXPECT_EQ(RunCache::instance().stats().disk_stores, 3u);

  RunCache::instance().clear();
  const SweepResult resumed = run_sweep(full);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(RunCache::instance().stats().disk_hits, 3u);  // gamess x 3 runs
  EXPECT_EQ(RunCache::instance().stats().misses, 9u);
  EXPECT_EQ(dir.csv(resumed, "resumed"), reference);
}

// The kill-and-resume property: a sweep cut short mid-row keeps every run
// that finished, and the resume restores exactly those — finer than whole
// rows, so the interrupted workload keeps its finished baseline.
TEST(SweepJournal, InterruptedThenResumedCsvIsByteIdentical) {
  const MemoDir dir("interrupted");
  const SweepSpec spec = tiny_sweep({"gamess", "gobmk", "libquantum"});
  const std::string reference = fresh_csv(spec, dir);

  // Inline schedule: gamess baseline, gamess esteem, then the shutdown.
  chaos::install_plan(std::make_unique<ShutdownAfterStore>(1));
  const SweepResult cut = run_sweep(spec);
  chaos::disarm();
  resilience::clear_shutdown();
  ASSERT_TRUE(cut.interrupted);
  EXPECT_TRUE(cut.errors.empty());
  for (const WorkloadRow& row : cut.rows) {
    EXPECT_TRUE(row.skipped) << row.workload;
    EXPECT_FALSE(row.completed) << row.workload;
  }
  EXPECT_EQ(RunCache::instance().stats().disk_stores, 2u);

  RunCache::instance().clear();
  const SweepResult resumed = run_sweep(spec);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(RunCache::instance().stats().disk_hits, 2u);
  EXPECT_EQ(dir.csv(resumed, "resumed"), reference);
}

TEST(SweepJournal, ShutdownRequestDrainsWithoutRunning) {
  const MemoDir dir("drain");
  const SweepSpec spec = tiny_sweep({"gamess", "gobmk"});

  resilience::request_shutdown();
  const SweepResult result = run_sweep(spec);
  resilience::clear_shutdown();

  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.errors.empty());  // skipped, not failed
  ASSERT_EQ(result.rows.size(), 2u);
  for (const WorkloadRow& row : result.rows) {
    EXPECT_TRUE(row.skipped);
    EXPECT_FALSE(row.completed);
  }
  // Nothing ran, so nothing may have been stored.
  EXPECT_EQ(RunCache::instance().stats().misses, 0u);
  EXPECT_TRUE(dir.memo_files().empty());
}

// Runs written under another seed or another energy scale are different
// RunSpecs: the directory restores nothing and the rerun matches a fresh
// sweep of the new config — results from a different configuration never
// leak in.
TEST(SweepJournal, ForeignDirRestoresNothing) {
  const MemoDir dir("foreign");
  ASSERT_TRUE(run_sweep(tiny_sweep({"gamess"})).ok());
  ASSERT_EQ(dir.memo_files().size(), 3u);

  SweepSpec reseeded = tiny_sweep({"gamess"});
  reseeded.seed = 99;
  SweepSpec rescaled = tiny_sweep({"gamess"});
  rescaled.config.energy.refresh_scale = 2.0;
  for (const SweepSpec& other : {reseeded, rescaled}) {
    const std::string reference = fresh_csv(other, dir);
    const SweepResult result = run_sweep(other);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(RunCache::instance().stats().disk_hits, 0u);
    EXPECT_EQ(dir.csv(result, "other"), reference);
  }
}

TEST(SweepJournal, TruncatedMemoFileIsQuarantinedAndRecomputed) {
  const MemoDir dir("truncated");
  const SweepSpec spec = tiny_sweep({"gamess"});
  const SweepResult first = run_sweep(spec);
  ASSERT_TRUE(first.ok());
  const std::vector<fs::path> files = dir.memo_files();
  ASSERT_EQ(files.size(), 3u);
  fs::resize_file(files.front(), fs::file_size(files.front()) / 2);

  RunCache::instance().clear();
  const SweepResult healed = run_sweep(spec);
  ASSERT_TRUE(healed.ok());
  const RunCacheStats stats = RunCache::instance().stats();
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.disk_hits, 2u);
  EXPECT_EQ(stats.disk_stores, 1u);  // the damaged run, recomputed
  EXPECT_EQ(dir.csv(healed, "healed"), dir.csv(first, "first"));
  EXPECT_FALSE(fs::is_empty(dir.path() / "corrupt"));
}

// run_guarded discards a result that arrives past [resilience]
// run_deadline_ms, but the memo cache has already published it. A rerun
// over the same directory therefore completes that row from disk, and the
// deadline (a scheduling policy, outside the fingerprint) never changes
// what the row contains.
TEST(SweepJournal, DeadlineErrorRowCompletesFromDiskOnRerun) {
  const MemoDir dir("deadline");
  const SweepSpec relaxed = tiny_sweep({"gamess", "gobmk"});
  const std::string reference = fresh_csv(relaxed, dir);

  SweepSpec strict = relaxed;
  strict.config.resilience.run_deadline_ms = 1;  // every run overshoots
  const SweepResult late = run_sweep(strict);
  ASSERT_FALSE(late.errors.empty());
  for (const RunError& e : late.errors) EXPECT_EQ(e.phase, "deadline");
  const std::uint64_t stored = RunCache::instance().stats().disk_stores;
  EXPECT_GE(stored, 1u);

  RunCache::instance().clear();
  const SweepResult rerun = run_sweep(relaxed);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(RunCache::instance().stats().disk_hits, stored);
  EXPECT_EQ(dir.csv(rerun, "rerun"), reference);
}

}  // namespace
}  // namespace esteem::sim
