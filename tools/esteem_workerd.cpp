// esteem_workerd — multi-process sweep service driver (DESIGN.md §12).
//
// One sweep, N cooperating processes sharing a service directory:
//
//   esteem_workerd --plan DIR --sweep WL[,WL] [--techniques A[,B]]
//                  [--config FILE] [--instr N] [--warmup N] [--seed N]
//       writes DIR/service.journal with the sweep header (the implicit
//       (workload x technique) row manifest); idempotent for the same sweep
//
//   esteem_workerd --worker DIR [--owner NAME] [--quiet]
//       lease -> run -> journal loop until every row is resolved; heartbeats
//       keep the in-flight lease alive, crashes leave a lease that expires
//       and is re-leased by a surviving worker
//
//   esteem_workerd --coordinator DIR [--sweep ... to plan inline]
//                  [--csv FILE] [--metrics FILE] [--timeout-ms N] [--quiet]
//       waits for workers, aggregates the journal, prints the sweep report
//       and writes the CSV — byte-identical to a single-process
//       `esteem_cli --sweep` of the same flags; --metrics additionally
//       writes the merged OpenMetrics exposition after the collect
//
//   esteem_workerd --status DIR [--json] [--metrics FILE]
//       one-shot fleet view: the lease table plus live per-worker health
//       (heartbeat age, rows done/stolen/failed, memo hit rate) and a sweep
//       ETA from observed row durations; --json prints the versioned
//       machine-readable form (the same fleet view the coordinator's
//       progress line renders), --metrics writes the merged OpenMetrics
//       exposition of every worker's latest snapshot
//
//   esteem_workerd --merge-trace DIR [--out FILE]
//       stitches the service journal + per-worker telemetry sidecars into
//       one Perfetto-loadable Chrome trace (coordinator pid 0, one pid per
//       worker); default output DIR/trace.merged.json
//
//   esteem_workerd --check-metrics FILE
//       strict OpenMetrics validation of FILE (used by tests/CI)
//
// Exit codes: 0 ok | 2 usage/open failure | 3 at least one workload errored
// | 5 interrupted (SIGINT/SIGTERM) | 6 integrity conflict (differing cell
// digests) | 7 --timeout-ms elapsed unresolved.
//
// Chaos drills: ESTEEM_CHAOS_SCHEDULE="worker.crash.after_claim@1=crash"
// makes a worker complete one row, claim the next and SIGKILL itself
// holding that lease (hit indices are 0-based).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "chaos/fault_plan.hpp"
#include "common/config_io.hpp"
#include "resilience/shutdown.hpp"
#include "service/coordinator.hpp"
#include "service/observer.hpp"
#include "service/worker.hpp"
#include "sweep_cli_common.hpp"
#include "telemetry/export.hpp"

namespace {

using namespace esteem;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: esteem_workerd --plan DIR --sweep WL[,WL] [--techniques A[,B]]\n"
               "                      [--config FILE] [--instr N] [--warmup N] [--seed N]\n"
               "       esteem_workerd --worker DIR [--owner NAME] [--quiet]\n"
               "       esteem_workerd --coordinator DIR [--sweep ...] [--csv FILE]\n"
               "                      [--metrics FILE] [--timeout-ms N] [--quiet]\n"
               "       esteem_workerd --status DIR [--json] [--metrics FILE]\n"
               "       esteem_workerd --merge-trace DIR [--out FILE]\n"
               "       esteem_workerd --check-metrics FILE\n");
  std::exit(2);
}

int run_status(const std::string& dir, bool json, const std::string& metrics_path) {
  service::LeaseTable table;
  if (!table.open(dir, "status")) {
    std::fprintf(stderr, "error: %s\n", table.last_error().c_str());
    return 2;
  }
  const service::TableState st = table.load_state();
  if (!st.ok) {
    std::fprintf(stderr, "error: %s\n", st.error.c_str());
    return 2;
  }
  const std::int64_t now = service::LeaseTable::wall_ms();
  const service::FleetStatus fs = service::collect_fleet_status(table, st, now);

  if (!metrics_path.empty()) {
    std::string merr;
    if (!service::write_fleet_metrics(dir, metrics_path, merr)) {
      std::fprintf(stderr, "warning: metrics not written: %s\n", merr.c_str());
    } else if (!json) {
      std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
    }
  }

  if (json) {
    std::printf("%s\n", service::status_json(fs).c_str());
    return st.conflict ? service::kExitIntegrity : 0;
  }

  std::printf("sweep %016llx: %zu row(s) = %zu workload(s) x %zu technique(s)\n",
              static_cast<unsigned long long>(table.sweep_hash()), st.rows.size(),
              table.spec().workloads.size(), table.n_techniques());
  for (std::size_t i = 0; i < st.rows.size(); ++i) {
    const service::RowState& r = st.rows[i];
    const char* status = r.done      ? "done"
                         : r.failed  ? "failed"
                         : r.leased(now) ? "leased"
                         : r.lease_id != 0 ? "expired"
                                           : "pending";
    std::printf("  row %-4zu %-16s %-14s %-8s gen %llu%s%s\n", i,
                table.row_workload(i).name.c_str(),
                std::string(to_string(table.row_technique(i))).c_str(), status,
                static_cast<unsigned long long>(r.generation),
                r.owner.empty() ? "" : " ", r.owner.c_str());
  }
  if (!fs.workers.empty()) {
    std::printf("workers:\n");
    for (const service::WorkerHealth& h : fs.workers) {
      char age[32];
      if (h.heartbeat_age_ms < 0) std::snprintf(age, sizeof age, "never");
      else std::snprintf(age, sizeof age, "%.1fs", static_cast<double>(h.heartbeat_age_ms) / 1000.0);
      char memo[32];
      if (h.memo_hit_rate < 0) std::snprintf(memo, sizeof memo, "-");
      else std::snprintf(memo, sizeof memo, "%.1f%%", h.memo_hit_rate * 100.0);
      std::printf("  %-20s %-5s hb age %-8s done %-3zu failed %-3zu stolen %-3zu "
                  "memo %-7s events %zu\n",
                  h.owner.c_str(), h.alive ? "alive" : "dead", age, h.rows_done,
                  h.rows_failed, h.rows_stolen, memo, h.events);
    }
  }
  std::printf("%s\n", service::progress_line(fs).c_str());
  return st.conflict ? service::kExitIntegrity : 0;
}

int run_check_metrics(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  if (!telemetry::check_openmetrics(buf.str(), error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return 2;
  }
  std::printf("%s: valid OpenMetrics exposition\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  chaos::install_from_env();
  std::string mode;
  std::string dir;
  std::string sweep_arg;
  std::string techniques_arg;
  std::string config_path;
  std::string csv_path;
  std::string owner;
  std::string metrics_path;
  std::string trace_out;
  instr_t instr = 4'000'000;
  instr_t warmup = 800'000;
  std::uint64_t seed = 42;
  std::uint32_t timeout_ms = 0;
  bool quiet = false;
  bool json = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    auto mode_flag = [&](const char* name) {
      if (!mode.empty()) {
        usage("pick exactly one of --plan/--worker/--coordinator/--status/"
              "--merge-trace/--check-metrics");
      }
      mode = name;
      dir = value();
    };
    if (arg == "--plan") mode_flag("plan");
    else if (arg == "--worker") mode_flag("worker");
    else if (arg == "--coordinator") mode_flag("coordinator");
    else if (arg == "--status") mode_flag("status");
    else if (arg == "--merge-trace") mode_flag("merge-trace");
    else if (arg == "--check-metrics") mode_flag("check-metrics");
    else if (arg == "--sweep") sweep_arg = value();
    else if (arg == "--techniques") techniques_arg = value();
    else if (arg == "--config") config_path = value();
    else if (arg == "--csv") csv_path = value();
    else if (arg == "--metrics") metrics_path = value();
    else if (arg == "--out") trace_out = value();
    else if (arg == "--json") json = true;
    else if (arg == "--owner") owner = value();
    else if (arg == "--instr") instr = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--warmup") warmup = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seed") seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--timeout-ms")
      timeout_ms = static_cast<std::uint32_t>(std::strtoul(value().c_str(), nullptr, 10));
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help" || arg == "-h") usage();
    else usage(("unknown option " + arg).c_str());
  }
  if (mode.empty()) {
    usage("pick one of --plan/--worker/--coordinator/--status/--merge-trace/"
          "--check-metrics");
  }

  try {
    if (mode == "status") return run_status(dir, json, metrics_path);
    if (mode == "check-metrics") return run_check_metrics(dir);
    if (mode == "merge-trace") {
      const std::string out = trace_out.empty()
                                  ? (std::filesystem::path(dir) / "trace.merged.json").string()
                                  : trace_out;
      std::string error;
      if (!service::write_merged_trace(dir, out, error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
      }
      std::printf("merged trace written to %s\n", out.c_str());
      return 0;
    }

    if (mode == "plan" || (mode == "coordinator" && !sweep_arg.empty())) {
      if (sweep_arg.empty()) usage("--plan requires --sweep");
      const auto items = tools::split_csv(sweep_arg);
      if (items.empty()) usage("empty sweep workload list");
      const SystemConfig cfg =
          config_path.empty()
              ? tools::default_sweep_config(tools::parse_sweep_workload(items.front()), instr)
              : load_config_file(config_path);
      const sim::SweepSpec spec =
          tools::build_sweep_spec(cfg, sweep_arg, techniques_arg, instr, warmup, seed, 1);
      std::string error;
      if (!service::plan_service(dir, spec, error)) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
      }
      std::printf("planned %zu row(s) (%zu workload(s) x %zu technique(s)) in %s\n",
                  spec.workloads.size() * spec.techniques.size(), spec.workloads.size(),
                  spec.techniques.size(), dir.c_str());
      if (mode == "plan") return 0;
    }

    resilience::install_signal_handlers();

    if (mode == "worker") {
      service::WorkerOptions opts;
      opts.dir = dir;
      opts.owner = owner;
      opts.quiet = quiet;
      const service::WorkerReport rep = service::run_worker(opts);
      if (!quiet || !rep.ok()) {
        std::fprintf(stderr, "[%s] done: %zu completed, %zu failed, %zu stolen, %zu fenced%s%s%s\n",
                     (opts.owner.empty() ? service::default_owner() : opts.owner).c_str(),
                     rep.rows_completed, rep.rows_failed, rep.rows_stolen, rep.fenced,
                     rep.interrupted ? ", interrupted" : "",
                     rep.ok() ? "" : ", error: ", rep.error.c_str());
      }
      if (!rep.ok()) {
        return rep.error.find("integrity conflict") != std::string::npos
                   ? service::kExitIntegrity
                   : 2;
      }
      return rep.interrupted ? resilience::kExitInterrupted : 0;
    }

    // coordinator
    service::CoordinatorOptions opts;
    opts.dir = dir;
    opts.csv_path = csv_path;
    opts.metrics_path = metrics_path;
    opts.timeout_ms = timeout_ms;
    opts.quiet = quiet;
    const service::CollectResult collected = service::wait_and_collect(opts);
    return service::report_collect(collected, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
