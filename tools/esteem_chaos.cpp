// Systematic crashpoint/fault exploration for the durable-I/O stack
// (DESIGN.md §15): enumerates one-fault schedules for every registered
// injection point (plus seeded random multi-fault plans), runs each through
// a forked scenario process — a CLI-style sweep over a memo directory, the
// resume format — then re-runs recovery in a clean process and checks the
// pinned invariants:
//
//   - a resumed sweep's CSV is byte-identical to an uninterrupted run,
//   - no (workload x technique) row is lost or duplicated,
//   - and every one-fault schedule actually reached its point (a schedule
//     that never fires is vacuous coverage, reported as a failure).
//
// Every leg is replayable: a failing schedule prints the exact
// `esteem_chaos --replay "<schedule>"` (or --random-replay SEED) command
// that reproduces it deterministically. These modes are the only way to
// arm the seam on a sweep: no tool reads a fault plan from its environment.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "sweep_cli_common.hpp"

namespace {

using namespace esteem;
namespace fs = std::filesystem;

[[noreturn]] void usage(const char* problem = nullptr) {
  if (problem != nullptr) std::fprintf(stderr, "error: %s\n", problem);
  std::fprintf(stderr,
               "usage: esteem_chaos --list-points\n"
               "       esteem_chaos --explore [--random N] [--rate PCT] "
               "[--root DIR] [--keep]\n"
               "       esteem_chaos --replay SCHEDULE [--root DIR] [--keep]\n"
               "       esteem_chaos --random-replay SEED [--rate PCT] "
               "[--root DIR] [--keep]\n"
               "\n"
               "Schedules: point@hit=action;...  actions: enospc eio "
               "short:<bytes> fail dup crash\n");
  std::exit(2);
}

// ---------------------------------------------------------------------------
// The shared scenario spec: tiny enough that a full leg is sub-second, big
// enough that every seam point is on the path (one memo store per run).

SystemConfig tiny_config() {
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

sim::SweepSpec base_spec() {
  sim::SweepSpec spec;
  spec.config = tiny_config();
  for (const char* w : {"gamess", "gobmk"}) {
    spec.workloads.push_back(trace::Workload{w, {w}});
  }
  spec.techniques = {sim::Technique::Esteem, sim::Technique::RefrintRPV};
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

// ---------------------------------------------------------------------------
// Scenario legs. Each runs inside a forked child (never in the parent: the
// chaos leg may SIGKILL itself, and both legs spawn sim threads). Children
// exit through _exit so the parent's stdio/atexit state is never touched.

constexpr unsigned kLegTimeoutSec = 120;

/// Sweep chaos leg: a sweep over the memo directory with faults armed.
/// Failures here are expected and fine — recovery is what gets judged.
void sweep_chaos_leg(const std::string& memo_dir) {
  sim::RunCache::instance().set_disk_dir(memo_dir);
  sim::run_sweep(base_spec());
}

/// Sweep recovery leg: no faults; rerun over whatever memo directory the
/// chaos leg left behind (the resume) and demand a complete result. Exit
/// codes name the broken invariant for the parent's failure message.
int sweep_recover_leg(const std::string& memo_dir, const std::string& csv_out) {
  sim::RunCache::instance().set_disk_dir(memo_dir);
  const sim::SweepSpec spec = base_spec();
  const sim::SweepResult result = sim::run_sweep(spec);

  if (!result.ok()) {
    for (const sim::RunError& e : result.errors) {
      std::fprintf(stderr, "run error: %s/%s: %s\n", e.workload.c_str(),
                   e.technique.c_str(), e.what.c_str());
    }
    return 3;
  }
  if (result.rows.size() != spec.workloads.size()) return 4;
  for (const sim::WorkloadRow& row : result.rows) {
    if (!row.completed || row.comparisons.size() != spec.techniques.size()) {
      return 4;  // lost or incomplete (workload x technique) row
    }
  }
  sim::write_csv(result, csv_out);
  return 0;
}

// ---------------------------------------------------------------------------
// Fork plumbing.

struct ChildResult {
  bool exited = false;   ///< Normal exit (code below).
  int exit_code = 0;
  bool killed = false;   ///< Died by SIGKILL (a crashpoint fired).
  int signal = 0;        ///< Terminating signal when not exited.
};

/// Runs `body` in a forked child with stdout/stderr redirected to
/// `log_path` and a wall-clock alarm (a hung leg dies by SIGALRM instead of
/// wedging the explorer). Returns how the child ended.
template <typename Body>
ChildResult run_child(const std::string& log_path, Body body) {
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::fprintf(stderr, "fatal: fork failed: %s\n", std::strerror(errno));
    std::exit(2);
  }
  if (pid == 0) {
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::alarm(kLegTimeoutSec);
    int code = 0;
    try {
      code = body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "uncaught exception: %s\n", e.what());
      code = 99;
    }
    std::fflush(nullptr);
    ::_exit(code);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ChildResult r;
  if (WIFEXITED(status)) {
    r.exited = true;
    r.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    r.signal = WTERMSIG(status);
    r.killed = r.signal == SIGKILL;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Legs and the exploration plan.

struct Leg {
  std::string schedule;       ///< "" = random plan.
  std::uint64_t seed = 0;     ///< Random legs only.
  unsigned rate = 3;          ///< Random injection probability (percent).
  bool is_crash = false;      ///< Schedule contains a crash action.
  bool require_fire = false;  ///< One-fault legs must reach their point.

  std::string label() const {
    return schedule.empty() ? "random seed " + std::to_string(seed) : schedule;
  }
  std::string replay_command() const {
    if (schedule.empty()) {
      return "esteem_chaos --random-replay " + std::to_string(seed) +
             " --rate " + std::to_string(rate);
    }
    return "esteem_chaos --replay \"" + schedule + "\"";
  }
};

/// One-fault actions appropriate to what the point's operation does.
std::vector<std::string> actions_for(chaos::OpKind kind) {
  switch (kind) {
    case chaos::OpKind::kWrite:  return {"enospc", "short:5"};
    case chaos::OpKind::kFsync:  return {"eio"};
    case chaos::OpKind::kRename: return {"fail", "dup"};
    case chaos::OpKind::kCrash:  return {"crash"};
  }
  return {};
}

/// The full one-fault-per-point plan plus `n_random` seeded multi-fault
/// legs.
std::vector<Leg> build_plan(unsigned n_random, unsigned rate) {
  std::vector<Leg> legs;
  for (const chaos::PointInfo& point : chaos::injection_points()) {
    for (const std::string& action : actions_for(point.kind)) {
      Leg leg;
      leg.schedule = std::string(point.name) + "@0=" + action;
      leg.is_crash = point.kind == chaos::OpKind::kCrash;
      leg.require_fire = true;
      legs.push_back(leg);
    }
  }
  for (unsigned i = 1; i <= n_random; ++i) {
    Leg leg;
    leg.seed = i;
    leg.rate = rate;
    legs.push_back(leg);
  }
  return legs;
}

/// Installs the leg's plan inside a chaos-leg child. Exits the child on a
/// schedule that no longer parses (registry drift).
void install_leg_plan(const Leg& leg) {
  if (leg.schedule.empty()) {
    chaos::install_plan(std::make_unique<chaos::RandomFaultPlan>(
        leg.seed, leg.rate, /*max_injections=*/6));
    return;
  }
  std::string error;
  auto plan = chaos::ScheduleFaultPlan::parse(leg.schedule, error);
  if (plan == nullptr) {
    std::fprintf(stderr, "bad schedule: %s\n", error.c_str());
    ::_exit(98);
  }
  chaos::install_plan(std::move(plan));
}

/// Runs one leg end to end under `dir`. Returns the failure reason, or
/// nullopt on success. `ref_csv` holds the no-fault reference bytes.
std::optional<std::string> run_leg(const Leg& leg, const std::string& dir,
                                   const std::string& ref_csv) {
  fs::create_directories(dir);
  // Faults tear real memo files, so every leg gets a private memo dir.
  const std::string memo_dir = (fs::path(dir) / "memo").string();
  const std::string fired_path = (fs::path(dir) / "fired").string();

  // Leg 1: chaos. Allowed to fail operations, forbidden to die by anything
  // but a deliberate crashpoint SIGKILL.
  const ChildResult chaos_leg =
      run_child((fs::path(dir) / "chaos.log").string(), [&]() {
        install_leg_plan(leg);
        sweep_chaos_leg(memo_dir);
        std::ofstream(fired_path) << chaos::injection_count();
        return 0;
      });

  if (!chaos_leg.exited && !chaos_leg.killed) {
    return "chaos leg died by signal " + std::to_string(chaos_leg.signal) +
           " (see " + dir + "/chaos.log)";
  }
  if (chaos_leg.exited && chaos_leg.exit_code != 0) {
    return "chaos leg exited " + std::to_string(chaos_leg.exit_code) +
           " (see " + dir + "/chaos.log)";
  }
  if (leg.require_fire) {
    if (leg.is_crash) {
      if (!chaos_leg.killed) {
        return "crashpoint never fired (vacuous coverage: the scenario no "
               "longer reaches this point)";
      }
    } else {
      const std::string fired = read_file(fired_path);
      if (fired.empty() || fired == "0") {
        return "fault never injected (vacuous coverage: the scenario no "
               "longer reaches this point)";
      }
    }
  }

  // Leg 2: recovery in a clean process; this is what the invariants judge.
  const std::string csv_out = (fs::path(dir) / "out.csv").string();
  const ChildResult recover =
      run_child((fs::path(dir) / "recover.log").string(),
                [&]() { return sweep_recover_leg(memo_dir, csv_out); });
  if (!recover.exited) {
    return "recovery leg died by signal " + std::to_string(recover.signal) +
           " (see " + dir + "/recover.log)";
  }
  if (recover.exit_code != 0) {
    const char* why = recover.exit_code == 3   ? "recovery run errored"
                      : recover.exit_code == 4 ? "rows lost, duplicated or incomplete"
                                               : "recovery failed";
    return std::string(why) + " (exit " + std::to_string(recover.exit_code) +
           ", see " + dir + "/recover.log)";
  }

  const std::string got = read_file(csv_out);
  if (got.empty()) return "recovery produced no CSV";
  if (got != ref_csv) {
    return "recovered CSV differs from the no-fault reference (" + csv_out +
           " vs reference.csv)";
  }
  return std::nullopt;
}

int list_points() {
  std::printf("%-28s %-7s %s\n", "POINT", "OP", "SUMMARY");
  for (const chaos::PointInfo& p : chaos::injection_points()) {
    const char* op = "?";
    switch (p.kind) {
      case chaos::OpKind::kWrite:  op = "write";  break;
      case chaos::OpKind::kFsync:  op = "fsync";  break;
      case chaos::OpKind::kRename: op = "rename"; break;
      case chaos::OpKind::kCrash:  op = "crash";  break;
    }
    std::printf("%-28s %-7s %s\n", p.name, op, p.summary);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (tools::refuse_retired_variables("esteem_chaos")) return 2;
  std::string mode;
  std::string schedule;
  std::string root;
  std::uint64_t seed = 0;
  unsigned n_random = 0;
  unsigned rate = 3;
  bool keep = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    auto count = [&](auto& out) {
      const std::string v = value();
      if (!tools::parse_count(v, out)) usage(("bad number '" + v + "' for " + arg).c_str());
    };
    if (arg == "--list-points") mode = "list";
    else if (arg == "--explore") mode = "explore";
    else if (arg == "--replay") { mode = "replay"; schedule = value(); }
    else if (arg == "--random-replay") {
      mode = "random-replay";
      count(seed);
    } else if (arg == "--random") {
      count(n_random);
    } else if (arg == "--rate") {
      count(rate);
    } else if (arg == "--root") root = value();
    else if (arg == "--keep") keep = true;
    else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown argument " + arg).c_str());
  }
  if (mode.empty()) usage("pick one of --list-points/--explore/--replay/--random-replay");
  if (mode == "list") return list_points();

  if (root.empty()) {
    root = (fs::temp_directory_path() /
            ("esteem-chaos-" + std::to_string(::getpid()))).string();
  }
  fs::remove_all(root);
  fs::create_directories(root);

  std::vector<Leg> legs;
  if (mode == "explore") {
    legs = build_plan(n_random, rate);
  } else if (mode == "replay") {
    Leg leg;
    leg.schedule = schedule;
    leg.is_crash = schedule.find("=crash") != std::string::npos;
    leg.require_fire = true;
    legs.push_back(leg);
  } else {  // random-replay
    Leg leg;
    leg.seed = seed;
    leg.rate = rate;
    legs.push_back(leg);
  }

  // Reference leg: the no-fault sweep, whose CSV every recovery must match
  // byte for byte. Runs through the same recovery code path.
  const std::string ref_memo = (fs::path(root) / "memo").string();
  const std::string ref_csv_path = (fs::path(root) / "reference.csv").string();
  {
    const std::string ref_dir = (fs::path(root) / "ref").string();
    fs::create_directories(ref_dir);
    const ChildResult ref =
        run_child((fs::path(ref_dir) / "ref.log").string(), [&]() {
          return sweep_recover_leg(ref_memo, ref_csv_path);
        });
    if (!ref.exited || ref.exit_code != 0) {
      std::fprintf(stderr,
                   "fatal: reference sweep failed (see %s/ref.log)\n"
                   "chaos: FAIL\n", ref_dir.c_str());
      return 1;
    }
  }
  const std::string ref_csv = read_file(ref_csv_path);

  std::size_t failures = 0;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const Leg& leg = legs[i];
    const std::string dir = (fs::path(root) / ("leg-" + std::to_string(i))).string();
    const std::optional<std::string> failure =
        run_leg(leg, dir, ref_csv);
    if (failure) {
      ++failures;
      std::printf("FAIL  %s\n      %s\n      replay: %s\n", leg.label().c_str(),
                  failure->c_str(), leg.replay_command().c_str());
    } else {
      std::printf("ok    %s\n", leg.label().c_str());
    }
    std::fflush(stdout);
  }

  const std::size_t scheduled = legs.size();
  if (failures == 0) {
    if (!keep) {
      std::error_code ec;
      fs::remove_all(root, ec);
    }
    std::printf("chaos: PASS (%zu legs, %u random seed(s), artifacts %s)\n",
                scheduled, n_random, keep ? root.c_str() : "removed");
    return 0;
  }
  std::printf("chaos: FAIL (%zu of %zu legs; artifacts kept in %s)\n",
              failures, scheduled, root.c_str());
  return 1;
}
