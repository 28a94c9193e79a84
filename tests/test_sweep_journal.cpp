// Tests for crash-safe sweeps: the run-memo directory is the journal. A
// sweep run over a memo directory leaves every finished run there, and a
// rerun over the same directory restores those runs as disk hits. These
// tests pin subset -> superset resume, kill-and-resume, runs written under a
// different seed or energy scale restoring nothing, and damaged memo files,
// each against the CSV bytes of a fresh sweep.
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

// A row task (baseline, ESTEEM, RPV and Smart-Refresh over one stream) still
// claims, counts and publishes every run on its own: one miss and one memo
// file per cell, no hits.
TEST(SweepJournal, FusedRowsCountOneMissAndOneStorePerCell) {
  const MemoDir dir("fused");
  SweepSpec spec = tiny_sweep({"gamess", "gobmk"});
  spec.techniques = {Technique::Esteem, Technique::RefrintRPV, Technique::SmartRefresh};
  ASSERT_TRUE(run_sweep(spec).ok());
  const RunCacheStats stats = RunCache::instance().stats();
  EXPECT_EQ(stats.misses, 8u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.disk_hits, 0u);
  EXPECT_EQ(stats.disk_stores, 8u);
  EXPECT_EQ(dir.memo_files().size(), 8u);

  // A memo file lost from a row task is recomputed alone and the rest
  // restore: the resumed sweep matches the first bit for bit.
  const SweepResult first = run_sweep(spec);
  fs::remove(dir.memo_files().front());
  RunCache::instance().clear();
  const SweepResult again = run_sweep(spec);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(RunCache::instance().stats().disk_hits, 7u);
  EXPECT_EQ(RunCache::instance().stats().disk_stores, 1u);
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

  // Serial schedule: a row is one task over one reference stream, which
  // stores its runs in cell order (gamess baseline, esteem, rpv). The
  // shutdown lands after the second store; the task still stores its third
  // run, and the two remaining rows drain.
  chaos::install_plan(std::make_unique<ShutdownAfterStore>(1));
  const SweepResult cut = run_sweep(spec);
  chaos::disarm();
  resilience::clear_shutdown();
  ASSERT_TRUE(cut.interrupted);
  EXPECT_TRUE(cut.errors.empty());
  ASSERT_EQ(cut.rows.size(), 3u);
  EXPECT_TRUE(cut.rows[0].completed);
  for (std::size_t i = 1; i < cut.rows.size(); ++i) {
    EXPECT_TRUE(cut.rows[i].skipped) << cut.rows[i].workload;
    EXPECT_FALSE(cut.rows[i].completed) << cut.rows[i].workload;
  }
  EXPECT_EQ(RunCache::instance().stats().disk_stores, 3u);

  RunCache::instance().clear();
  const SweepResult resumed = run_sweep(spec);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(RunCache::instance().stats().disk_hits, 3u);
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

}  // namespace
}  // namespace esteem::sim
