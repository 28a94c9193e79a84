// Tests for the fault-injection layer (DESIGN.md §15): schedule parsing,
// deterministic injection, the zero-overhead seam pin (armed-but-quiet
// chaos leaves journal and sweep bytes untouched), memo-store fsync and
// lost-rename regressions, observer ENOSPC degradation, random-plan
// determinism, crashpoint death, and the [resilience] circuit breaker.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "chaos/file_ops.hpp"
#include "resilience/journal_file.hpp"
#include "service/observer.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"

namespace esteem::chaos {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag)
      : path(fs::temp_directory_path() / ("esteem-chaos-" + tag)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// RAII disarm so a failing assertion never leaks a plan into later tests.
struct Disarmed {
  ~Disarmed() { disarm(); }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

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

sim::RunSpec tiny_run(const std::string& workload) {
  sim::RunSpec spec;
  spec.config = tiny();
  spec.technique = sim::Technique::Esteem;
  spec.workload = {workload, {workload}};
  spec.instr_per_core = 50'000;
  spec.warmup_instr_per_core = 10'000;
  return spec;
}

TEST(SchedulePlan, ParsesEntriesHitsAndActions) {
  std::string error;
  auto plan = ScheduleFaultPlan::parse(
      "lease.append.write@2=enospc;memo.rename=dup;lease.append.fsync@*=eio;"
      "memo.tmp.write@0=short:7", error);
  ASSERT_NE(plan, nullptr) << error;

  // hit 0 and 1 clean, hit 2 fails, hit 3 clean again.
  EXPECT_TRUE(plan->at("lease.append.write").none());
  EXPECT_TRUE(plan->at("lease.append.write").none());
  const Injection inj = plan->at("lease.append.write");
  EXPECT_EQ(inj.action, Injection::Action::kErrno);
  EXPECT_EQ(inj.err, ENOSPC);
  EXPECT_TRUE(plan->at("lease.append.write").none());

  // No '@hit' means hit 0.
  EXPECT_EQ(plan->at("memo.rename").action, Injection::Action::kRenameDuplicate);
  EXPECT_TRUE(plan->at("memo.rename").none());

  // '*' fires on every occurrence.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(plan->at("lease.append.fsync").action, Injection::Action::kErrno);
  }

  const Injection torn = plan->at("memo.tmp.write");
  EXPECT_EQ(torn.action, Injection::Action::kShortWrite);
  EXPECT_EQ(torn.bytes, 7u);

  // Unnamed points are always clean.
  EXPECT_TRUE(plan->at("sidecar.open").none());
}

TEST(SchedulePlan, RejectsMalformedSchedules) {
  std::string error;
  EXPECT_EQ(ScheduleFaultPlan::parse("", error), nullptr);
  EXPECT_EQ(ScheduleFaultPlan::parse("point-no-action", error), nullptr);
  EXPECT_EQ(ScheduleFaultPlan::parse("p@0=explode", error), nullptr);
  EXPECT_NE(error.find("unknown action"), std::string::npos);
  EXPECT_EQ(ScheduleFaultPlan::parse("p@x=eio", error), nullptr);
  EXPECT_EQ(ScheduleFaultPlan::parse("=eio", error), nullptr);
  EXPECT_EQ(ScheduleFaultPlan::parse("p@1=short:", error), nullptr);
  EXPECT_EQ(ScheduleFaultPlan::parse("p@1=eio;;q@2=eio", error), nullptr);
}

TEST(SchedulePlan, InstallArmAndCountLifecycle) {
  Disarmed cleanup;
  EXPECT_FALSE(armed());
  EXPECT_TRUE(consult("lease.append.write").none());

  std::string error;
  install_plan(ScheduleFaultPlan::parse("lease.append.write@0=eio", error));
  EXPECT_TRUE(armed());
  EXPECT_EQ(injection_count(), 0u);
  EXPECT_EQ(consult("lease.append.write").action, Injection::Action::kErrno);
  EXPECT_EQ(injection_count(), 1u);
  EXPECT_TRUE(consult("lease.append.write").none());
  EXPECT_EQ(injection_count(), 1u);

  disarm();
  EXPECT_FALSE(armed());
  EXPECT_TRUE(consult("lease.append.write").none());
}

TEST(SchedulePlan, InstallFromEnvironment) {
  Disarmed cleanup;
  ::setenv("ESTEEM_CHAOS_SCHEDULE", "p@0=explode", 1);
  EXPECT_FALSE(install_from_env());
  EXPECT_FALSE(armed());

  ::setenv("ESTEEM_CHAOS_SCHEDULE", "lease.append.write@0=eio", 1);
  EXPECT_TRUE(install_from_env());
  EXPECT_TRUE(armed());
  ::unsetenv("ESTEEM_CHAOS_SCHEDULE");

  disarm();
  ::setenv("ESTEEM_CHAOS_RANDOM_SEED", "17", 1);
  EXPECT_TRUE(install_from_env());
  EXPECT_TRUE(armed());
  ::unsetenv("ESTEEM_CHAOS_RANDOM_SEED");
}

TEST(RandomPlan, DeterministicPerSeedAndBudgetCapped) {
  const std::vector<std::string> points = {
      "lease.append.write", "lease.append.fsync", "memo.rename",
      "sidecar.open",       "lease.append.write", "memo.tmp.write"};
  auto run_plan = [&](std::uint64_t seed) {
    RandomFaultPlan plan(seed, /*rate_percent=*/60, /*max_injections=*/4);
    std::vector<Injection> out;
    for (int round = 0; round < 40; ++round) {
      for (const std::string& p : points) out.push_back(plan.at(p));
    }
    return out;
  };

  const std::vector<Injection> a = run_plan(7);
  const std::vector<Injection> b = run_plan(7);
  ASSERT_EQ(a.size(), b.size());
  unsigned fired = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].action, b[i].action) << i;
    EXPECT_EQ(a[i].err, b[i].err) << i;
    EXPECT_EQ(a[i].bytes, b[i].bytes) << i;
    EXPECT_NE(a[i].action, Injection::Action::kCrash);  // never crashes
    if (!a[i].none()) ++fired;
  }
  EXPECT_GT(fired, 0u);
  EXPECT_LE(fired, 4u);  // the budget bounds total injections

  // A different seed picks a different injection pattern.
  const std::vector<Injection> c = run_plan(8);
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].action != c[i].action) differs = true;
  }
  EXPECT_TRUE(differs);
}

// The acceptance pin: an armed-but-quiet plan (every consultation returns
// kNone) must leave journal bytes exactly as the disarmed fast path writes
// them — the seam may not perturb the data it guards.
TEST(ZeroOverheadSeam, ArmedQuietPlanWritesIdenticalJournalBytes) {
  Disarmed cleanup;
  TempDir dir("seam-pin");
  auto write_journal = [&](const std::string& name) {
    resilience::JournalFile journal;
    journal.set_domain("lease");
    const std::string path = (dir.path / name).string();
    EXPECT_TRUE(journal.open(path, /*truncate=*/true));
    for (int i = 0; i < 5; ++i) {
      resilience::JournalRecord rec;
      rec.kind = "row";
      rec.fields = {{"workload", "mcf"}, {"n", std::to_string(i)},
                    {"data", "00ff9a3f"}};
      EXPECT_TRUE(journal.append(rec));
    }
    journal.close();
    return read_file(path);
  };

  disarm();
  const std::string baseline = write_journal("disarmed.jsonl");
  ASSERT_FALSE(baseline.empty());

  std::string error;
  install_plan(ScheduleFaultPlan::parse("unrelated.point@0=eio", error));
  ASSERT_TRUE(armed());
  const std::string armed_bytes = write_journal("armed.jsonl");
  EXPECT_EQ(injection_count(), 0u);  // quiet: nothing ever fired
  EXPECT_EQ(armed_bytes, baseline);
}

// Satellite regression: a failed fsync on the memo temp file must keep the
// outcome in memory only — no file published, the failure counted — and a
// later clean store must succeed.
TEST(MemoStore, FsyncFailureIsCountedAndNothingPublished) {
  Disarmed cleanup;
  TempDir dir("memo-fsync");
  const sim::RunSpec spec = tiny_run("gamess");

  auto memo_files = [&]() {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      if (entry.path().filename().string().rfind("esteem-memo-", 0) == 0) ++n;
    }
    return n;
  };

  std::string error;
  install_plan(ScheduleFaultPlan::parse("memo.tmp.fsync@0=eio", error));
  {
    sim::RunCache cache;
    cache.set_disk_dir(dir.str());
    ASSERT_NE(cache.get_or_run(spec), nullptr);
    EXPECT_EQ(cache.stats().store_fsync_errors, 1u);
    EXPECT_EQ(cache.stats().disk_stores, 0u);
    EXPECT_EQ(memo_files(), 0u);  // neither temp nor final file survives
    // The outcome is still served from memory.
    EXPECT_NE(cache.get_or_run(spec), nullptr);
    EXPECT_EQ(cache.stats().hits, 1u);
  }

  disarm();
  {
    sim::RunCache cache;
    cache.set_disk_dir(dir.str());
    ASSERT_NE(cache.get_or_run(spec), nullptr);
    EXPECT_EQ(cache.stats().store_fsync_errors, 0u);
    EXPECT_EQ(cache.stats().disk_stores, 1u);
    EXPECT_EQ(memo_files(), 1u);
  }
  {
    // And the published file actually loads.
    sim::RunCache cache;
    cache.set_disk_dir(dir.str());
    ASSERT_NE(cache.get_or_run(spec), nullptr);
    EXPECT_EQ(cache.stats().disk_hits, 1u);
  }
}

// The lost-reply rename model: the rename lands but is reported failed (a
// retried rename on a network filesystem). The store is counted as an
// error, yet the published file must still be valid for the next process.
TEST(MemoStore, DuplicatedRenameLeavesValidFile) {
  Disarmed cleanup;
  TempDir dir("memo-dup");
  const sim::RunSpec spec = tiny_run("gamess");

  std::string error;
  install_plan(ScheduleFaultPlan::parse("memo.rename@0=dup", error));
  {
    sim::RunCache cache;
    cache.set_disk_dir(dir.str());
    ASSERT_NE(cache.get_or_run(spec), nullptr);
    EXPECT_EQ(cache.stats().store_errors, 1u);  // reported as failed
  }
  disarm();
  {
    sim::RunCache cache;
    cache.set_disk_dir(dir.str());
    ASSERT_NE(cache.get_or_run(spec), nullptr);
    EXPECT_EQ(cache.stats().disk_hits, 1u);  // ...but the file is there, intact
    EXPECT_EQ(cache.stats().quarantined, 0u);
  }
}

// A short write physically tears the journal line; the loader must count
// the damage and salvage the next intact record glued onto the torn tail.
TEST(JournalSeam, ShortWriteTearsLineAndLoaderSalvages) {
  Disarmed cleanup;
  TempDir dir("torn");
  const std::string path = (dir.path / "torn.jsonl").string();

  std::string error;
  install_plan(ScheduleFaultPlan::parse("lease.append.write@0=short:5", error));
  resilience::JournalFile journal;
  journal.set_domain("lease");
  ASSERT_TRUE(journal.open(path, /*truncate=*/true));
  resilience::JournalRecord rec;
  rec.kind = "row";
  rec.fields = {{"workload", "mcf"}, {"data", "00ff"}};
  EXPECT_FALSE(journal.append(rec));  // torn: 5 bytes land, append fails
  EXPECT_EQ(fs::file_size(path), 5u);
  EXPECT_TRUE(journal.append(rec));  // hit 1 is clean; glued after the tear
  journal.close();
  disarm();

  const auto loaded = resilience::JournalFile::load(path);
  EXPECT_TRUE(loaded.exists);
  EXPECT_EQ(loaded.corrupt_lines, 1u);   // the torn fragment, counted not fatal
  ASSERT_EQ(loaded.records.size(), 1u);  // the glued record is salvaged
  EXPECT_EQ(loaded.records[0].field("workload"), "mcf");
}

// Satellite: observer sidecar ENOSPC degrades to a counted write error;
// events and snapshots never throw and never fail the caller.
TEST(Observer, WriteFailuresAreCountedNotFatal) {
  Disarmed cleanup;
  TempDir dir("observer");
  ObservabilityConfig cfg;
  cfg.flush_ms = 1;
  cfg.events_max = 16;

  std::string error;
  install_plan(ScheduleFaultPlan::parse("sidecar.append.write@*=enospc", error));
  service::Observer observer;
  ASSERT_TRUE(observer.open(dir.str(), "w1", cfg));
  for (int i = 0; i < 3; ++i) observer.event("warn", "disk is gone");
  observer.flush_snapshot();
  EXPECT_EQ(observer.write_errors(), 4u);  // 3 events + 1 snapshot
  disarm();

  observer.event("info", "disk is back");
  EXPECT_EQ(observer.write_errors(), 4u);  // clean append counts nothing
}

using ChaosDeathTest = ::testing::Test;

TEST(ChaosDeathTest, CrashpointKillsWithSigkill) {
  EXPECT_EXIT(
      {
        std::string error;
        install_plan(
            ScheduleFaultPlan::parse("lease.crash.before_append@0=crash", error));
        TempDir dir("death");
        resilience::JournalFile journal;
        journal.set_domain("lease");
        journal.open((dir.path / "j.jsonl").string(), true);
        resilience::JournalRecord rec;
        rec.kind = "row";
        journal.append(rec);
      },
      ::testing::KilledBySignal(SIGKILL), "crash at lease.crash.before_append");
}

// ---------------------------------------------------------------------------
// [resilience] max_consecutive_errors circuit breaker.

sim::SweepSpec breaker_sweep(std::vector<std::string> workloads,
                             std::uint32_t threshold) {
  sim::SweepSpec spec;
  spec.config = tiny();
  spec.config.resilience.max_consecutive_errors = threshold;
  for (const std::string& w : workloads) spec.workloads.push_back({w, {w}});
  spec.techniques = {sim::Technique::Esteem};
  spec.instr_per_core = 50'000;
  spec.warmup_instr_per_core = 10'000;
  spec.threads = 1;
  return spec;
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailuresAndSkipsTheRest) {
  const std::vector<std::string> bad = {"no-such-1", "no-such-2", "no-such-3",
                                        "no-such-4"};
  const sim::SweepResult result = sim::run_sweep(breaker_sweep(bad, 2));
  EXPECT_TRUE(result.circuit_broken);
  EXPECT_FALSE(result.interrupted);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.errors.empty());  // exit-3 guarantee: errors survive
  std::size_t skipped = 0;
  for (const sim::WorkloadRow& row : result.rows) {
    EXPECT_FALSE(row.completed);
    if (row.skipped) ++skipped;
  }
  EXPECT_GE(skipped, 2u);  // at least the post-trip workloads were drained
}

TEST(CircuitBreaker, OffByDefaultRunsTheWholeMatrix) {
  const std::vector<std::string> bad = {"no-such-1", "no-such-2", "no-such-3"};
  const sim::SweepResult result = sim::run_sweep(breaker_sweep(bad, 0));
  EXPECT_FALSE(result.circuit_broken);
  EXPECT_EQ(result.errors.size(), 3u);  // every workload ran and failed
  for (const sim::WorkloadRow& row : result.rows) EXPECT_FALSE(row.skipped);
}

TEST(CircuitBreaker, SuccessResetsTheConsecutiveCount) {
  // bad, good, bad, bad with threshold 2: the good run resets the streak,
  // so only the final two failures count — exactly at the threshold, the
  // breaker trips only after the last row and drains nothing.
  const std::vector<std::string> mix = {"no-such-1", "gamess", "no-such-2",
                                        "no-such-3"};
  const sim::SweepResult result = sim::run_sweep(breaker_sweep(mix, 2));
  EXPECT_EQ(result.errors.size(), 3u);
  bool good_completed = false;
  for (const sim::WorkloadRow& row : result.rows) {
    if (row.workload == "gamess") good_completed = row.completed;
  }
  EXPECT_TRUE(good_completed);
}

}  // namespace
}  // namespace esteem::chaos
