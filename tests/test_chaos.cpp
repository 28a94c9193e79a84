// Tests for the fault-injection layer (DESIGN.md §15): schedule parsing,
// deterministic injection, the zero-overhead seam pin (armed-but-quiet
// chaos leaves memo-file bytes untouched), memo-store fsync and
// lost-rename regressions, random-plan determinism, and crashpoint death.
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
      "memo.tmp.write@2=enospc;memo.rename=dup;memo.tmp.fsync@*=eio;"
      "memo.crash.before_rename@0=crash;memo.tmp.write@3=short:7", error);
  ASSERT_NE(plan, nullptr) << error;

  // hit 0 and 1 clean, hit 2 fails, hit 3 tears, hit 4 clean again.
  EXPECT_TRUE(plan->at("memo.tmp.write").none());
  EXPECT_TRUE(plan->at("memo.tmp.write").none());
  const Injection inj = plan->at("memo.tmp.write");
  EXPECT_EQ(inj.action, Injection::Action::kErrno);
  EXPECT_EQ(inj.err, ENOSPC);
  const Injection torn = plan->at("memo.tmp.write");
  EXPECT_EQ(torn.action, Injection::Action::kShortWrite);
  EXPECT_EQ(torn.bytes, 7u);
  EXPECT_TRUE(plan->at("memo.tmp.write").none());

  // No '@hit' means hit 0.
  EXPECT_EQ(plan->at("memo.rename").action, Injection::Action::kRenameDuplicate);
  EXPECT_TRUE(plan->at("memo.rename").none());

  // '*' fires on every occurrence.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(plan->at("memo.tmp.fsync").action, Injection::Action::kErrno);
  }

  EXPECT_EQ(plan->at("memo.crash.before_rename").action, Injection::Action::kCrash);

  // Unnamed points are always clean.
  EXPECT_TRUE(plan->at("memo.crash.after_rename").none());
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
  EXPECT_TRUE(consult("memo.tmp.write").none());

  std::string error;
  install_plan(ScheduleFaultPlan::parse("memo.tmp.write@0=eio", error));
  EXPECT_TRUE(armed());
  EXPECT_EQ(injection_count(), 0u);
  EXPECT_EQ(consult("memo.tmp.write").action, Injection::Action::kErrno);
  EXPECT_EQ(injection_count(), 1u);
  EXPECT_TRUE(consult("memo.tmp.write").none());
  EXPECT_EQ(injection_count(), 1u);

  disarm();
  EXPECT_FALSE(armed());
  EXPECT_TRUE(consult("memo.tmp.write").none());
}

TEST(RandomPlan, DeterministicPerSeedAndBudgetCapped) {
  const std::vector<std::string> points = {
      "memo.tmp.write", "memo.tmp.fsync",          "memo.rename",
      "memo.tmp.write", "memo.crash.after_rename", "memo.tmp.fsync"};
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

TEST(RandomPlan, UnregisteredPointsAreNeverFaulted) {
  RandomFaultPlan plan(7, /*rate_percent=*/100, /*max_injections=*/1000);
  for (int i = 0; i < 200; ++i) EXPECT_TRUE(plan.at("journal.append.write").none());
  EXPECT_FALSE(plan.at("memo.tmp.write").none());
}

// The acceptance pin: an armed-but-quiet plan (every consultation returns
// kNone) must leave the memo files a --journal directory holds exactly as
// the disarmed fast path writes them — the seam may not perturb the data it
// guards.
TEST(ZeroOverheadSeam, ArmedQuietPlanWritesIdenticalJournalBytes) {
  Disarmed cleanup;
  TempDir dir("seam-pin");
  const sim::RunSpec spec = tiny_run("gamess");
  auto store = [&](const std::string& name) {
    const fs::path sub = dir.path / name;
    sim::RunCache cache;
    cache.set_disk_dir(sub.string());
    EXPECT_NE(cache.get_or_run(spec), nullptr);
    EXPECT_EQ(cache.stats().disk_stores, 1u);
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(sub)) files.push_back(entry.path());
    EXPECT_EQ(files.size(), 1u);
    return files.empty() ? std::string() : read_file(files.front().string());
  };

  disarm();
  const std::string baseline = store("disarmed");
  ASSERT_FALSE(baseline.empty());

  std::string error;
  install_plan(ScheduleFaultPlan::parse("unrelated.point@0=eio", error));
  ASSERT_TRUE(armed());
  const std::string armed_bytes = store("armed");
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

using ChaosDeathTest = ::testing::Test;

TEST(ChaosDeathTest, CrashpointKillsWithSigkill) {
  EXPECT_EXIT(
      {
        std::string error;
        install_plan(
            ScheduleFaultPlan::parse("memo.crash.before_rename@0=crash", error));
        TempDir dir("death");
        sim::RunCache cache;
        cache.set_disk_dir(dir.str());
        cache.get_or_run(tiny_run("gamess"));
      },
      ::testing::KilledBySignal(SIGKILL), "crash at memo.crash.before_rename");
}

}  // namespace
}  // namespace esteem::chaos
