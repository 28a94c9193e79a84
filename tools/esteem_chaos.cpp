// Systematic crashpoint/fault exploration for the durable-I/O stack
// (DESIGN.md §15): enumerates one-fault schedules for every registered
// injection point (plus seeded random multi-fault plans), runs each through
// a forked scenario process, then re-runs recovery in a clean process and
// checks the pinned invariants:
//
//   - a resumed sweep's CSV is byte-identical to an uninterrupted run,
//   - no (workload x technique) row is lost or duplicated,
//   - the lease-table replay is conflict-free and fully resolved,
//   - damaged journal lines are counted, never fatal,
//   - and every one-fault schedule actually reached its point (a schedule
//     that never fires is vacuous coverage, reported as a failure).
//
// Every leg is replayable: a failing schedule prints the exact
// `esteem_chaos --replay "<schedule>" --mode <m>` (or --random-replay SEED)
// command that reproduces it deterministically.
//
// Scenarios by point domain: memo.* run a CLI-style sweep over a memo
// directory (the resume format); lease.* / sidecar.* run the multi-process
// service path in BOTH
// lock modes ([service] lock_mode=append and =lockfile); lock.* points only
// exist in lockfile mode. The service CSV is compared against the sweep
// reference CSV on purpose — the coordinator documents byte-equality with
// run_sweep, so chaos exploration re-checks that contract too.
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
#include "service/coordinator.hpp"
#include "service/lease_table.hpp"
#include "service/worker.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"

namespace {

using namespace esteem;
namespace fs = std::filesystem;

[[noreturn]] void usage(const char* problem = nullptr) {
  if (problem != nullptr) std::fprintf(stderr, "error: %s\n", problem);
  std::fprintf(stderr,
               "usage: esteem_chaos --list-points\n"
               "       esteem_chaos --explore [--random N] [--rate PCT] "
               "[--root DIR] [--keep]\n"
               "       esteem_chaos --replay SCHEDULE [--mode append|lockfile] "
               "[--root DIR] [--keep]\n"
               "       esteem_chaos --random-replay SEED [--rate PCT] "
               "[--root DIR] [--keep]\n"
               "\n"
               "Schedules: point@hit=action;...  actions: enospc eio "
               "short:<bytes> fail dup crash\n");
  std::exit(2);
}

// ---------------------------------------------------------------------------
// The shared scenario spec: tiny enough that a full leg is sub-second, big
// enough that every seam point is on the path (memo stores, leases,
// heartbeats, sidecar snapshots).

SystemConfig tiny_config() {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 100'000;
  cfg.esteem.sampling_ratio = 32;
  cfg.esteem.a_min = 2;
  // Tight service timings so a crashed worker's lease expires (and a stale
  // lock file ages out) within one leg instead of the production 30 s.
  cfg.service.lease_ttl_ms = 400;
  cfg.service.heartbeat_ms = 100;
  cfg.service.poll_ms = 25;
  // Arm the observer sidecars so sidecar.* points are on the path.
  cfg.observability.flush_ms = 10;
  return cfg;
}

sim::SweepSpec base_spec(const std::string& lock_mode) {
  sim::SweepSpec spec;
  spec.config = tiny_config();
  spec.config.service.lock_mode = lock_mode;
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
  sim::run_sweep(base_spec("append"));
}

/// Sweep recovery leg: no faults; rerun over whatever memo directory the
/// chaos leg left behind (the resume) and demand a complete result. Exit
/// codes name the broken invariant for the parent's failure message.
int sweep_recover_leg(const std::string& memo_dir, const std::string& csv_out) {
  sim::RunCache::instance().set_disk_dir(memo_dir);
  const sim::SweepSpec spec = base_spec("append");
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

/// Service chaos leg: plan + one worker with faults armed.
void service_chaos_leg(const std::string& dir, const std::string& lock_mode) {
  const std::string svc = (fs::path(dir) / "svc").string();
  std::string error;
  if (!service::plan_service(svc, base_spec(lock_mode), error)) return;
  service::WorkerOptions opts;
  opts.dir = svc;
  opts.quiet = true;
  service::run_worker(opts);
}

/// Service recovery leg: re-plan (idempotent; repairs a torn/missing
/// header), run a clean worker to resolution, then check the lease-table
/// replay and collect the CSV.
int service_recover_leg(const std::string& dir, const std::string& lock_mode,
                        const std::string& csv_out) {
  const std::string svc = (fs::path(dir) / "svc").string();
  std::string error;
  if (!service::plan_service(svc, base_spec(lock_mode), error)) {
    std::fprintf(stderr, "re-plan failed: %s\n", error.c_str());
    return 2;
  }
  service::WorkerOptions opts;
  opts.dir = svc;
  opts.quiet = true;
  const service::WorkerReport report = service::run_worker(opts);
  if (!report.ok()) {
    std::fprintf(stderr, "recovery worker failed: %s\n", report.error.c_str());
    return 3;
  }

  service::LeaseTable table;
  if (!table.open(svc, "chaos-check")) {
    std::fprintf(stderr, "table open failed: %s\n", table.last_error().c_str());
    return 2;
  }
  const service::TableState state = table.load_state();
  if (!state.ok) {
    std::fprintf(stderr, "load_state failed: %s\n", state.error.c_str());
    return 4;
  }
  if (state.conflict) {
    std::fprintf(stderr, "lease replay CONFLICT (differing cell digests)\n");
    return 4;
  }
  if (state.completed != table.n_rows() || state.failed != 0) {
    std::fprintf(stderr, "rows not fully resolved: %zu/%zu done, %zu failed\n",
                 state.completed, table.n_rows(), state.failed);
    return 4;
  }
  std::fprintf(stderr, "replay ok: %zu rows, %zu damaged line(s) skipped\n",
               state.completed, state.damaged_lines);

  service::CoordinatorOptions copts;
  copts.dir = svc;
  copts.csv_path = csv_out;
  copts.timeout_ms = 60'000;
  copts.quiet = true;
  const service::CollectResult collected = service::wait_and_collect(copts);
  if (!collected.ok) {
    std::fprintf(stderr, "collect failed: %s\n", collected.error.c_str());
    return 5;
  }
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
  bool sweep_scenario = true;
  std::string lock_mode = "append";  ///< Service scenario only.
  bool is_crash = false;      ///< Schedule contains a crash action.
  bool require_fire = false;  ///< One-fault legs must reach their point.

  std::string label() const {
    std::string s = schedule.empty()
                        ? "random seed " + std::to_string(seed)
                        : schedule;
    s += sweep_scenario ? " [sweep]" : " [service/" + lock_mode + "]";
    return s;
  }
  std::string replay_command() const {
    if (schedule.empty()) {
      return "esteem_chaos --random-replay " + std::to_string(seed) +
             " --rate " + std::to_string(rate);
    }
    std::string cmd = "esteem_chaos --replay \"" + schedule + "\"";
    if (!sweep_scenario) cmd += " --mode " + lock_mode;
    return cmd;
  }
};

/// One-fault actions appropriate to what the point's operation does.
std::vector<std::string> actions_for(chaos::OpKind kind) {
  switch (kind) {
    case chaos::OpKind::kOpen:   return {"eio"};
    case chaos::OpKind::kWrite:  return {"enospc", "short:5"};
    case chaos::OpKind::kFsync:  return {"eio"};
    case chaos::OpKind::kRename: return {"fail", "dup"};
    case chaos::OpKind::kCrash:  return {"crash"};
  }
  return {};
}

bool point_is_sweep_scenario(const std::string& point) {
  return point.rfind("memo.", 0) == 0;
}

bool point_is_lock(const std::string& point) {
  return point.rfind("lock.", 0) == 0;
}

/// The full one-fault-per-point plan plus `n_random` seeded multi-fault
/// legs (each random seed runs both scenarios).
std::vector<Leg> build_plan(unsigned n_random, unsigned rate) {
  std::vector<Leg> legs;
  for (const chaos::PointInfo& point : chaos::injection_points()) {
    for (const std::string& action : actions_for(point.kind)) {
      Leg leg;
      leg.schedule = std::string(point.name) + "@0=" + action;
      leg.is_crash = point.kind == chaos::OpKind::kCrash;
      leg.require_fire = true;
      if (point_is_sweep_scenario(point.name)) {
        legs.push_back(leg);
        continue;
      }
      leg.sweep_scenario = false;
      if (point_is_lock(point.name)) {
        leg.lock_mode = "lockfile";  // lock.* points exist only here
        legs.push_back(leg);
        continue;
      }
      // lease.* / sidecar.* faults must recover under both serializations.
      leg.lock_mode = "append";
      legs.push_back(leg);
      leg.lock_mode = "lockfile";
      legs.push_back(leg);
    }
  }
  for (unsigned i = 1; i <= n_random; ++i) {
    Leg leg;
    leg.seed = i;
    leg.rate = rate;
    leg.sweep_scenario = true;
    legs.push_back(leg);
    leg.sweep_scenario = false;
    leg.lock_mode = (i % 2 == 0) ? "lockfile" : "append";
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
                                   const std::string& shared_memo,
                                   const std::string& ref_csv) {
  fs::create_directories(dir);
  // memo.* faults (and random plans, which may draw them) tear real memo
  // files; give those legs a private memo dir so the shared warm cache
  // stays pristine for everyone else.
  const bool private_memo =
      leg.schedule.empty() || leg.schedule.rfind("memo.", 0) == 0;
  const std::string memo_dir =
      private_memo ? (fs::path(dir) / "memo").string() : shared_memo;
  const std::string fired_path = (fs::path(dir) / "fired").string();

  // Leg 1: chaos. Allowed to fail operations, forbidden to die by anything
  // but a deliberate crashpoint SIGKILL.
  const ChildResult chaos_leg =
      run_child((fs::path(dir) / "chaos.log").string(), [&]() {
        install_leg_plan(leg);
        if (leg.sweep_scenario) {
          sweep_chaos_leg(memo_dir);
        } else {
          service_chaos_leg(dir, leg.lock_mode);
        }
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
      run_child((fs::path(dir) / "recover.log").string(), [&]() {
        return leg.sweep_scenario
                   ? sweep_recover_leg(memo_dir, csv_out)
                   : service_recover_leg(dir, leg.lock_mode, csv_out);
      });
  if (!recover.exited) {
    return "recovery leg died by signal " + std::to_string(recover.signal) +
           " (see " + dir + "/recover.log)";
  }
  if (recover.exit_code != 0) {
    static const char* const kReasons[] = {
        "", "", "plan/table reopen failed", "recovery run errored",
        "rows lost, duplicated, conflicted or unresolved", "collect failed"};
    const char* why = recover.exit_code >= 2 && recover.exit_code <= 5
                          ? kReasons[recover.exit_code]
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
      case chaos::OpKind::kOpen:   op = "open";   break;
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
  std::string mode;
  std::string schedule;
  std::string lock_mode;
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
    if (arg == "--list-points") mode = "list";
    else if (arg == "--explore") mode = "explore";
    else if (arg == "--replay") { mode = "replay"; schedule = value(); }
    else if (arg == "--random-replay") {
      mode = "random-replay";
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--random") {
      n_random = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (arg == "--rate") {
      rate = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    } else if (arg == "--mode") {
      lock_mode = value();
      if (lock_mode != "append" && lock_mode != "lockfile") {
        usage("--mode must be append or lockfile");
      }
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
    const std::string first_point = schedule.substr(0, schedule.find_first_of("@="));
    leg.sweep_scenario = point_is_sweep_scenario(first_point);
    if (!leg.sweep_scenario) {
      leg.lock_mode = lock_mode.empty()
                          ? (point_is_lock(first_point) ? "lockfile" : "append")
                          : lock_mode;
    }
    legs.push_back(leg);
  } else {  // random-replay
    Leg leg;
    leg.seed = seed;
    leg.rate = rate;
    leg.sweep_scenario = true;
    legs.push_back(leg);
    leg.sweep_scenario = false;
    leg.lock_mode = (seed % 2 == 0) ? "lockfile" : "append";
    legs.push_back(leg);
  }

  // Reference leg: the no-fault sweep, whose CSV every recovery must match
  // byte for byte. Runs through the same recovery code path (and warms the
  // shared memo dir, so later legs mostly replay memoized outcomes).
  const std::string shared_memo = (fs::path(root) / "memo").string();
  const std::string ref_csv_path = (fs::path(root) / "reference.csv").string();
  {
    const std::string ref_dir = (fs::path(root) / "ref").string();
    fs::create_directories(ref_dir);
    const ChildResult ref =
        run_child((fs::path(ref_dir) / "ref.log").string(), [&]() {
          return sweep_recover_leg(shared_memo, ref_csv_path);
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
        run_leg(leg, dir, shared_memo, ref_csv);
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
