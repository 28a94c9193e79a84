// esteem_cli — command-line driver for the simulator.
//
//   esteem_cli [options]
//     --workload NAME[,NAME]   benchmark per core (Table 1 name/acronym, or
//                              trace:<file> to replay a recorded trace)
//     --technique NAME         baseline | periodic-valid | rpv | rpd |
//                              smart-refresh | ecc-extended | cache-decay |
//                              esteem
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
//     --journal DIR            crash-safe sweep: use DIR as the run-memo
//                              directory (the only way to name one), so
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
//     --telemetry-dir DIR      record every simulated run's per-interval
//                              series and write, into DIR, one
//                              <label>.intervals.jsonl per run and
//                              trace.json, a Chrome trace_event timeline
//                              (chrome://tracing or Perfetto) rendered from
//                              the series: one simulated-time lane per run
//                              and per ESTEEM module, in label order. DIR
//                              must not hold an earlier process's telemetry
//                              (any *.json or *.jsonl file; exit 2). Runs
//                              restored from --journal are not simulated and
//                              carry none of these (stderr says how many),
//                              so a resumed sweep names a fresh DIR
//     --dump-config            print the effective configuration and exit
//     --dump-config-doc        print the Markdown config-key reference
//                              generated from the INI schema (docs/CONFIG.md)
//                              and exit
//     --list-workloads         print all Table 1 benchmark names and exit
//
// Telemetry is off by default and observer-free: sweep CSV and run tables
// are byte-identical with and without --telemetry-dir.
//
// The CLI reads no environment: a retired ESTEEM_* variable (memo
// directory, fault schedule, scale) that is still set exits 2.
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config_io.hpp"
#include "common/table.hpp"
#include "resilience/shutdown.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
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
               "                  [--journal DIR]\n"
               "                  [--jobs N] [--csv FILE] [--config FILE]\n"
               "                  [--instr N] [--warmup N] [--seed N]\n"
               "                  [--compare] [--telemetry-dir DIR]\n"
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
  sim::SweepSpec spec;
  try {
    spec = tools::build_sweep_spec(cfg, sweep_arg, techniques_arg, instr, warmup, seed, jobs);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
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
              sim::resolve_threads(jobs));
  const sim::RunCacheStats memo_before = sim::RunCache::instance().stats();
  const sim::SweepResult result = sim::run_sweep(spec);
  const sim::RunCacheStats memo_after = sim::RunCache::instance().stats();
  std::printf("%s", sim::figure_report(result, "sweep").c_str());
  // Parallelism header: the resolved worker count together with what the
  // memo cache actually absorbed during this sweep. Memo-file damage only
  // appends when it happened, keeping the common line stable.
  std::printf("parallelism: %u worker thread(s), memo-cache %llu hit / %llu miss "
              "(%llu disk hit)",
              sim::resolve_threads(jobs),
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
    const unsigned long long restored = memo_after.disk_hits - memo_before.disk_hits;
    std::printf("resume: %llu run(s) restored from %s\n", restored, journal_dir.c_str());
    if (restored > 0 && telemetry::active()) {
      std::fprintf(stderr,
                   "telemetry: %llu restored run(s) were not simulated and carry no "
                   "interval series or trace lanes\n",
                   restored);
    }
  }
  if (!csv_path.empty()) {
    sim::write_csv(result, csv_path);
    std::printf("csv written to %s\n", csv_path.c_str());
  }

  if (!result.errors.empty()) {
    std::fprintf(stderr, "\nsweep errors (%zu of %zu workloads failed):\n",
                 result.errors.size(), spec.workloads.size());
    for (const sim::RunError& e : result.errors) {
      std::fprintf(stderr, "  workload %-16s technique %-14s %s\n",
                   e.workload.c_str(), e.technique.c_str(), e.what.c_str());
    }
  }
  if (result.interrupted) {
    // Partial summary above is already on stdout; the dedicated exit code
    // lets wrappers distinguish "interrupted, resumable" from failure.
    std::fprintf(stderr, "sweep interrupted: finished runs kept%s\n",
                 journal_dir.empty()
                     ? " in memory only (use --journal DIR to persist)"
                     : ("; rerun with the same --journal " + journal_dir + " to resume")
                           .c_str());
    return resilience::kExitInterrupted;
  }
  return result.errors.empty() ? 0 : 3;
}

/// Checks the telemetry dir before any run: creates it, refuses one that
/// already holds telemetry output, any *.json or *.jsonl file (this
/// process's trace would sit beside another's series), and opens
/// trace.json, so a bad path fails up front instead of silently dropping
/// the run's telemetry. Returns "" or an error naming the path.
std::string check_telemetry_dir(const std::string& dir) {
  std::string error;
  if (!tools::make_output_dir(dir, "telemetry", error)) return error;
  std::error_code ec;
  std::string used;  // the first telemetry file in name order
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    const std::string ext = entry.path().extension().string();
    if ((ext == ".json" || ext == ".jsonl") && (used.empty() || name < used)) {
      used = name;
    }
  }
  if (!used.empty()) {
    return "telemetry directory already holds " +
           (std::filesystem::path(dir) / used).string() + "; name a fresh directory";
  }
  const std::string path = (std::filesystem::path(dir) / "trace.json").string();
  if (!std::ofstream(path).good()) {
    return "cannot open telemetry file " + path + ": " + std::strerror(errno);
  }
  std::filesystem::remove(path, ec);  // the real write happens at flush
  return {};
}

/// Writes trace.json (the interval series were written per run) and reports
/// every path.
void flush_telemetry() {
  auto& tel = telemetry::Telemetry::instance();
  if (!tel.active()) return;
  const auto fr = tel.flush();
  for (const std::string& p : fr.series_paths) {
    std::printf("interval stats written to %s\n", p.c_str());
  }
  if (!fr.trace_path.empty()) {
    std::printf("trace written to %s (%zu events)\n", fr.trace_path.c_str(),
                fr.trace_events);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (tools::refuse_retired_variables("esteem_cli")) return 2;
  std::string workload = "h264ref";
  std::string technique = "esteem";
  std::string sweep_arg;
  bool sweep_mode = false;
  std::string techniques_arg;
  std::string csv_path;
  std::string config_path;
  std::string journal_dir;
  std::string telemetry_dir;
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
    auto count = [&](auto& out) {
      const std::string v = value();
      if (!tools::parse_count(v, out)) usage(("bad number '" + v + "' for " + arg).c_str());
    };
    if (arg == "--workload") workload = value();
    else if (arg == "--technique") technique = value();
    else if (arg == "--sweep") { sweep_mode = true; sweep_arg = value(); }
    else if (arg == "--techniques") techniques_arg = value();
    else if (arg == "--csv") csv_path = value();
    else if (arg == "--config") config_path = value();
    else if (arg == "--journal") journal_dir = value();
    else if (arg == "--instr") count(instr);
    else if (arg == "--warmup") count(warmup);
    else if (arg == "--seed") count(seed);
    else if (arg == "--jobs") count(jobs);
    else if (arg == "--compare") compare = true;
    else if (arg == "--telemetry-dir") telemetry_dir = value();
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
  // A zero budget would "measure" the single reference the run loop always
  // steps; esteem_validate refuses it the same way.
  if (instr == 0) usage("--instr must be positive");

  try {
    if (!telemetry_dir.empty()) {
      const std::string error = check_telemetry_dir(telemetry_dir);
      if (!error.empty()) {
        std::fprintf(stderr, "error: %s\n", error.c_str());
        return 2;
      }
      telemetry::Telemetry::instance().configure({telemetry_dir});
    }

    SystemConfig cfg = SystemConfig::single_core();
    if (!config_path.empty()) {
      try {
        cfg = load_config_file(config_path);
      } catch (const std::invalid_argument& e) {
        usage(e.what());
      }
    }

    if (sweep_mode) {
      const std::vector<std::string> sweep_items = split_csv(sweep_arg);
      if (sweep_items.empty()) usage("empty sweep workload list");
      if (config_path.empty()) {
        cfg = tools::paper_default_config(parse_sweep_workload(sweep_items.front()));
      }
      if (dump_config) {
        save_config(cfg, std::cout);
        return 0;
      }
      resolve_interval(cfg, instr);
      const int code = run_sweep_mode(cfg, sweep_arg, techniques_arg, csv_path, instr,
                                      warmup, seed, jobs, journal_dir);
      flush_telemetry();
      return code;
    }
    if (!journal_dir.empty()) usage("--journal requires --sweep");

    const std::vector<std::string> benchmarks = split_csv(workload);
    if (benchmarks.empty()) usage("empty workload list");
    // The scaling rule, not its result for this --instr, is what
    // --dump-config writes.
    if (config_path.empty()) cfg = tools::paper_default_config({workload, benchmarks});
    if (benchmarks.size() != cfg.ncores) {
      usage("workload count must match the configured core count");
    }

    if (dump_config) {
      save_config(cfg, std::cout);
      return 0;
    }
    resolve_interval(cfg, instr);

    sim::RunSpec spec;
    spec.config = cfg;
    try {
      spec.technique = sim::parse_technique(technique);
    } catch (const std::invalid_argument& e) {
      usage(e.what());
    }
    spec.workload = {workload, benchmarks};
    spec.instr_per_core = instr;
    spec.warmup_instr_per_core = warmup;
    spec.seed = seed;

    std::printf("workload %s | technique %s | %llu instr/core (+%llu warm-up)\n\n",
                workload.c_str(), technique.c_str(),
                static_cast<unsigned long long>(instr),
                static_cast<unsigned long long>(warmup));

    sim::RunOutcome out;
    try {
      out = sim::run_experiment(spec);
    } catch (const std::invalid_argument& e) {
      // A config the run refuses for this technique or budget (an ECC
      // extension past [faults] max_tracked_extension, a sampled run
      // shorter than two periods) is a usage error.
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    print_run(out, cfg.faults.enabled);

    if (compare && spec.technique != sim::Technique::BaselinePeriodicAll) {
      sim::RunSpec base_spec = spec;
      base_spec.technique = sim::Technique::BaselinePeriodicAll;
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
