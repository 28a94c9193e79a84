// esteem_cli — command-line driver for the simulator.
//
//   esteem_cli [options]
//     --workload NAME[,NAME]   benchmark per core (Table 1 name/acronym, or
//                              trace:<file> to replay a recorded trace)
//     --technique NAME         baseline | periodic-valid | rpv | rpd |
//                              smart-refresh | ecc-extended | esteem
//     --sweep WL[,WL]          sweep mode: evaluate every technique of
//                              --techniques over these workloads (use '+'
//                              to separate per-core benchmarks within one
//                              workload, e.g. gobmk+namd). A workload that
//                              fails is reported at the end instead of
//                              aborting the sweep; exit code 3 signals that
//                              at least one workload errored. SIGINT/SIGTERM
//                              drain the sweep gracefully (finished runs
//                              are kept, queued work is skipped) and exit
//                              with code 5.
//     --serve DIR              sweep-as-a-service: plan the --sweep into DIR
//                              and wait for `esteem_workerd --worker DIR`
//                              processes to resolve the rows instead of
//                              running them here; the report/CSV are
//                              byte-identical to the in-process sweep. Exit
//                              codes add 6 (integrity conflict) to the sweep
//                              protocol.
//     --journal DIR            crash-safe sweep: use DIR as the run-memo
//                              directory (overrides ESTEEM_MEMO_DIR), so
//                              every finished run is published there
//                              (fsync'd, CRC'd) as it completes. Rerunning
//                              with the same --journal DIR is the resume:
//                              finished runs are restored, not re-run; runs
//                              of a different config/seed/budget never match
//     --techniques A[,B]       techniques compared in sweep mode
//                              (default: esteem,rpv)
//     --jobs N                 sweep worker threads (0 = hardware
//                              concurrency, the default); the run header
//                              prints the resolved parallelism
//     --csv FILE.csv           write the sweep result table to CSV
//     --config FILE            INI system configuration (see --dump-config)
//     --instr N                measured instructions per core
//     --warmup N               warm-up instructions per core
//     --seed N                 workload generator seed
//     --compare                also run the baseline and print the paper's
//                              comparison metrics (energy saving, WS, ...)
//     --timeline FILE.csv      dump the per-interval reconfiguration timeline
//     --telemetry-dir DIR      telemetry output directory: per-run interval
//                              JSONL series plus a counters.json registry
//                              dump land here
//     --trace FILE.json        emit a Chrome trace_event timeline (open in
//                              chrome://tracing or Perfetto): simulated-time
//                              reconfiguration/refresh/fault lanes plus
//                              wall-clock task-pool and memo-cache rows
//     --interval-stats         record the per-interval counter time-series
//                              (written as <label>.intervals.jsonl)
//     --dump-config            print the effective configuration and exit
//     --dump-config-doc        print the Markdown config-key reference
//                              generated from the INI schema (docs/CONFIG.md)
//                              and exit
//     --list-workloads         print all Table 1 benchmark names and exit
//
// Telemetry is off by default and observer-free: with none of the three
// flags given, output (including sweep CSV) is byte-identical to a build
// without the subsystem.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/fault_plan.hpp"
#include "common/config_io.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "resilience/shutdown.hpp"
#include "service/coordinator.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "sim/task_pool.hpp"
#include "sweep_cli_common.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/spec_profiles.hpp"

namespace {

using namespace esteem;
using esteem::tools::parse_sweep_workload;
using esteem::tools::split_csv;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(stderr,
               "usage: esteem_cli [--workload A[,B]] [--technique NAME]\n"
               "                  [--sweep WL[,WL]] [--techniques A[,B]]\n"
               "                  [--serve DIR] [--journal DIR]\n"
               "                  [--jobs N] [--csv FILE] [--config FILE]\n"
               "                  [--instr N] [--warmup N] [--seed N]\n"
               "                  [--compare] [--timeline FILE]\n"
               "                  [--telemetry-dir DIR] [--trace FILE]\n"
               "                  [--interval-stats]\n"
               "                  [--dump-config] [--dump-config-doc]\n"
               "                  [--list-workloads]\n");
  std::exit(2);
}

void print_run(const sim::RunOutcome& out, bool faults_enabled) {
  TextTable t;
  t.set_header({"metric", "value"});
  for (std::size_t c = 0; c < out.raw.ipc.size(); ++c) {
    t.add_row({"IPC core " + std::to_string(c), fmt(out.raw.ipc[c], 3)});
  }
  t.add_row({"wall cycles", std::to_string(out.raw.wall_cycles)});
  t.add_row({"L2 demand misses", std::to_string(out.raw.demand_misses)});
  t.add_row({"line refreshes", std::to_string(out.raw.refreshes)});
  t.add_row({"active ratio %", fmt(100.0 * out.raw.avg_active_ratio, 1)});
  t.add_row({"E leak L2 (mJ)", fmt(out.energy.leak_l2_j * 1e3, 4)});
  t.add_row({"E dyn L2 (mJ)", fmt(out.energy.dyn_l2_j * 1e3, 4)});
  t.add_row({"E refresh L2 (mJ)", fmt(out.energy.refresh_l2_j * 1e3, 4)});
  if (faults_enabled) {
    t.add_row({"E ecc-correct (mJ)", fmt(out.energy.ecc_l2_j * 1e3, 4)});
  }
  t.add_row({"E memory (mJ)", fmt(out.energy.mm_j * 1e3, 4)});
  t.add_row({"E algorithm (mJ)", fmt(out.energy.algo_j * 1e6, 4) + " uJ"});
  t.add_row({"E total (mJ)", fmt(out.energy.total_j() * 1e3, 4)});
  if (faults_enabled) {
    const auto& f = out.raw.faults;
    t.add_row({"fault epochs scanned", std::to_string(f.scans)});
    t.add_row({"ECC-corrected lines", std::to_string(f.corrected_lines)});
    t.add_row({"ECC-corrected reads", std::to_string(f.corrected_reads)});
    t.add_row({"uncorrectable refetches", std::to_string(f.refetches)});
    t.add_row({"data-loss events", std::to_string(f.data_loss_events)});
    t.add_row({"disabled lines", std::to_string(out.raw.disabled_slots)});
  }
  std::printf("%s", t.to_string().c_str());
}

/// Runs sweep mode end to end; returns the process exit code (0 = all
/// workloads completed, 3 = at least one workload errored, 5 = interrupted
/// by SIGINT/SIGTERM after a graceful drain).
int run_sweep_mode(const SystemConfig& cfg, const std::string& sweep_arg,
                   const std::string& techniques_arg, const std::string& csv_path,
                   instr_t instr, instr_t warmup, std::uint64_t seed,
                   unsigned jobs, const std::string& journal_dir) {
  const sim::SweepSpec spec =
      tools::build_sweep_spec(cfg, sweep_arg, techniques_arg, instr, warmup, seed, jobs);
  if (spec.workloads.empty()) usage("empty sweep workload list");

  if (!journal_dir.empty()) {
    std::string error;
    if (!tools::use_journal_dir(journal_dir, error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
  }

  // From here on SIGINT/SIGTERM drain the sweep instead of killing it.
  resilience::install_signal_handlers();

  std::printf("sweep: %zu workload(s) x %zu technique(s) + baseline, %u worker thread(s)\n",
              spec.workloads.size(), spec.techniques.size(),
              sim::TaskPool::resolve_threads(jobs));
  const sim::RunCacheStats memo_before = sim::RunCache::instance().stats();
  const sim::SweepResult result = sim::run_sweep(spec);
  const sim::RunCacheStats memo_after = sim::RunCache::instance().stats();
  std::printf("%s", sim::figure_report(result, "sweep").c_str());
  // Parallelism header: the resolved worker count together with what the
  // memo cache actually absorbed during this sweep. Memo-file damage only
  // appends when it happened, keeping the common line stable.
  std::printf("parallelism: %u worker thread(s), memo-cache %llu hit / %llu miss "
              "(%llu disk hit)",
              sim::TaskPool::resolve_threads(jobs),
              static_cast<unsigned long long>(memo_after.hits - memo_before.hits),
              static_cast<unsigned long long>(memo_after.misses - memo_before.misses),
              static_cast<unsigned long long>(memo_after.disk_hits -
                                              memo_before.disk_hits));
  if (memo_after.quarantined > memo_before.quarantined) {
    std::printf(", %llu quarantined",
                static_cast<unsigned long long>(memo_after.quarantined -
                                                memo_before.quarantined));
  }
  std::printf("\n");
  if (!journal_dir.empty()) {
    std::printf("resume: %llu run(s) restored from %s\n",
                static_cast<unsigned long long>(memo_after.disk_hits -
                                                memo_before.disk_hits),
                journal_dir.c_str());
  }
  const std::string phases = telemetry::profiler().to_line();
  if (!phases.empty()) std::printf("phases: %s\n", phases.c_str());
  if (!csv_path.empty()) {
    sim::write_csv(result, csv_path);
    std::printf("csv written to %s\n", csv_path.c_str());
  }

  if (!result.errors.empty()) {
    std::fprintf(stderr, "\nsweep errors (%zu of %zu workloads failed):\n",
                 result.errors.size(), spec.workloads.size());
    for (const sim::RunError& e : result.errors) {
      if (e.phase == "run") {
        std::fprintf(stderr, "  workload %-16s technique %-14s %s\n",
                     e.workload.c_str(), e.technique.c_str(), e.what.c_str());
      } else {
        std::fprintf(stderr, "  workload %-16s technique %-14s [%s] %s\n",
                     e.workload.c_str(), e.technique.c_str(), e.phase.c_str(),
                     e.what.c_str());
      }
    }
  }
  // With ESTEEM_MEMO_DIR alone the runs are just as durable; --journal
  // names the same directory explicitly.
  const std::string memo_dir = sim::RunCache::instance().disk_dir();
  const std::string rerun =
      memo_dir.empty() ? "" : "rerun with the same --journal " + memo_dir;
  if (result.circuit_broken) {
    std::size_t skipped = 0;
    for (const sim::WorkloadRow& row : result.rows) skipped += row.skipped ? 1 : 0;
    std::fprintf(stderr,
                 "circuit breaker tripped after %u consecutive errors: "
                 "%zu workload(s) skipped%s\n",
                 spec.config.resilience.max_consecutive_errors, skipped,
                 rerun.empty() ? "" : ("; fix the config and " + rerun).c_str());
  }
  if (result.interrupted) {
    // Partial summary above is already on stdout; the dedicated exit code
    // lets wrappers distinguish "interrupted, resumable" from failure.
    std::fprintf(stderr, "sweep interrupted: finished runs kept%s\n",
                 rerun.empty() ? " in memory only (use --journal DIR to persist)"
                               : ("; " + rerun + " to resume").c_str());
    return resilience::kExitInterrupted;
  }
  return result.errors.empty() ? 0 : 3;
}

/// Writes pending telemetry artefacts (interval series were written per run;
/// this adds the Chrome trace and counters.json) and reports their paths.
void flush_telemetry() {
  auto& tel = telemetry::Telemetry::instance();
  if (!tel.active()) return;
  for (const std::string& p : tel.drain_written()) {
    std::printf("interval stats written to %s\n", p.c_str());
  }
  const auto fr = tel.flush();
  if (!fr.trace_path.empty()) {
    std::printf("trace written to %s (%zu events)\n", fr.trace_path.c_str(),
                fr.trace_events);
  }
  if (!fr.counters_path.empty()) {
    std::printf("counters written to %s\n", fr.counters_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  chaos::install_from_env();
  std::string workload = "h264ref";
  std::string technique = "esteem";
  std::string sweep_arg;
  std::string serve_dir;
  bool sweep_mode = false;
  std::string techniques_arg;
  std::string csv_path;
  std::string config_path;
  std::string journal_dir;
  std::string timeline_path;
  std::string telemetry_dir;
  std::string trace_path;
  bool interval_stats = false;
  instr_t instr = 4'000'000;
  instr_t warmup = 800'000;
  std::uint64_t seed = 42;
  unsigned jobs = 0;
  bool compare = false;
  bool dump_config = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") workload = value();
    else if (arg == "--technique") technique = value();
    else if (arg == "--sweep") { sweep_mode = true; sweep_arg = value(); }
    else if (arg == "--serve") serve_dir = value();
    else if (arg == "--techniques") techniques_arg = value();
    else if (arg == "--csv") csv_path = value();
    else if (arg == "--config") config_path = value();
    else if (arg == "--journal") journal_dir = value();
    else if (arg == "--instr") instr = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--warmup") warmup = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seed") seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--jobs")
      jobs = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 10));
    else if (arg == "--compare") compare = true;
    else if (arg == "--timeline") timeline_path = value();
    else if (arg == "--telemetry-dir") telemetry_dir = value();
    else if (arg == "--trace") trace_path = value();
    else if (arg == "--interval-stats") interval_stats = true;
    else if (arg == "--dump-config") dump_config = true;
    else if (arg == "--dump-config-doc") {
      // The reference documents the schema itself, so it is generated from
      // the canonical defaults regardless of --config.
      std::printf("%s", config_doc_markdown(SystemConfig::single_core()).c_str());
      return 0;
    }
    else if (arg == "--list-workloads") {
      for (const auto& p : trace::all_profiles()) {
        std::printf("%-12s %s\n", std::string(p.name).c_str(),
                    std::string(p.acronym).c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }

  try {
    {
      telemetry::TelemetryConfig tc;
      tc.interval_stats = interval_stats;
      tc.dir = telemetry_dir;
      tc.trace_path = trace_path;
      if (tc.any()) telemetry::Telemetry::instance().configure(tc);
    }

    SystemConfig cfg =
        config_path.empty() ? SystemConfig::single_core() : load_config_file(config_path);

    if (sweep_mode) {
      const std::vector<std::string> sweep_items = split_csv(sweep_arg);
      if (sweep_items.empty()) usage("empty sweep workload list");
      if (config_path.empty()) {
        // Paper defaults for the core count of the first sweep workload;
        // a mismatched workload later fails as a recorded sweep error.
        cfg = tools::default_sweep_config(parse_sweep_workload(sweep_items.front()), instr);
      }
      if (dump_config) {
        save_config(cfg, std::cout);
        return 0;
      }
      if (!serve_dir.empty()) {
        // Sweep-as-a-service: plan the rows, let esteem_workerd processes
        // resolve them, aggregate — never simulate in this process. The
        // stderr progress heartbeat is the shared fleet line of
        // service::progress_line (the same view `esteem_workerd --status
        // --json` serializes), so the two surfaces cannot skew.
        if (!journal_dir.empty()) {
          usage("--serve uses DIR/service.journal; drop --journal");
        }
        const sim::SweepSpec spec = tools::build_sweep_spec(cfg, sweep_arg, techniques_arg,
                                                            instr, warmup, seed, jobs);
        std::string plan_error;
        if (!service::plan_service(serve_dir, spec, plan_error)) {
          std::fprintf(stderr, "error: %s\n", plan_error.c_str());
          return 2;
        }
        resilience::install_signal_handlers();
        std::printf("serving %zu row(s) from %s; run: esteem_workerd --worker %s\n",
                    spec.workloads.size() * spec.techniques.size(), serve_dir.c_str(),
                    serve_dir.c_str());
        service::CoordinatorOptions copts;
        copts.dir = serve_dir;
        copts.csv_path = csv_path;
        const service::CollectResult collected = service::wait_and_collect(copts);
        const int code = service::report_collect(collected, copts);
        flush_telemetry();
        return code;
      }
      const int code = run_sweep_mode(cfg, sweep_arg, techniques_arg, csv_path, instr,
                                      warmup, seed, jobs, journal_dir);
      flush_telemetry();
      return code;
    }
    if (!journal_dir.empty() || !serve_dir.empty()) {
      usage("--journal/--serve require --sweep");
    }

    const std::vector<std::string> benchmarks = split_csv(workload);
    if (benchmarks.empty()) usage("empty workload list");
    if (config_path.empty()) {
      // No explicit config: adopt the paper defaults for the requested core
      // count and scale the 10M-cycle interval to the shortened run (the
      // same policy the bench harness uses; see DESIGN.md §5).
      cfg = benchmarks.size() >= 2 ? SystemConfig::dual_core()
                                   : SystemConfig::single_core();
      cfg.ncores = static_cast<std::uint32_t>(benchmarks.size());
      apply_scaled_interval(cfg, instr);
    }
    if (benchmarks.size() != cfg.ncores) {
      usage("workload count must match the configured core count");
    }

    if (dump_config) {
      save_config(cfg, std::cout);
      return 0;
    }

    sim::RunSpec spec;
    spec.config = cfg;
    spec.technique = sim::parse_technique(technique);
    spec.workload = {workload, benchmarks};
    spec.instr_per_core = instr;
    spec.warmup_instr_per_core = warmup;
    spec.seed = seed;
    spec.record_timeline = !timeline_path.empty();

    std::printf("workload %s | technique %s | %llu instr/core (+%llu warm-up)\n\n",
                workload.c_str(), technique.c_str(),
                static_cast<unsigned long long>(instr),
                static_cast<unsigned long long>(warmup));

    const sim::RunOutcome out = sim::run_experiment(spec);
    print_run(out, cfg.faults.enabled);

    if (!timeline_path.empty()) {
      CsvWriter csv(timeline_path);
      std::vector<std::string> header{"cycle", "active_ratio"};
      for (std::uint32_t m = 0; m < cfg.esteem.modules; ++m) {
        header.push_back("module" + std::to_string(m));
      }
      csv.write_row(header);
      for (const auto& s : out.raw.timeline) {
        std::vector<std::string> row{std::to_string(s.cycle), fmt(s.active_ratio, 4)};
        for (std::uint32_t w : s.module_ways) row.push_back(std::to_string(w));
        csv.write_row(row);
      }
      std::printf("\ntimeline written to %s (%zu intervals)\n", timeline_path.c_str(),
                  out.raw.timeline.size());
    }

    if (compare && spec.technique != sim::Technique::BaselinePeriodicAll) {
      sim::RunSpec base_spec = spec;
      base_spec.technique = sim::Technique::BaselinePeriodicAll;
      base_spec.record_timeline = false;
      const sim::RunOutcome base = sim::run_experiment(base_spec);
      const sim::TechniqueComparison c =
          sim::compare(workload, spec.technique, base, out);
      std::printf("\nvs. baseline (periodic refresh-all):\n");
      std::printf("  energy saving    : %7.2f %%\n", c.energy_saving_pct);
      std::printf("  weighted speedup : %7.3fx\n", c.weighted_speedup);
      std::printf("  fair speedup     : %7.3fx\n", c.fair_speedup);
      std::printf("  RPKI             : %8.1f -> %8.1f\n", c.rpki_base, c.rpki_tech);
      std::printf("  MPKI             : %8.3f -> %8.3f\n", c.mpki_base, c.mpki_tech);
    }
    flush_telemetry();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
