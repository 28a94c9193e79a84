// Sweep runner: evaluates a set of techniques over a set of workloads. The
// sweep is a list of independent (workload x technique) cells, baseline
// included — a technique run never reads its baseline; only compare() does,
// in a serial pass after every cell has run. When the config's runs share
// a reference stream (cpu::shares_stream), a row is one task that runs all
// its cells over one stream; otherwise every cell is a task of its own.
// N threads claim tasks from one atomic index (N <= 1 runs the same loop on
// the calling thread), so with enough cores the sweep's wall clock
// approaches the slowest single task.
// Every run goes through the process-wide RunOutcome memo cache
// (sim/run_cache.hpp), so repeated sweeps — and other reports in the same
// process — never recompute an identical experiment. With a memo directory
// set, that cache is also how a killed sweep resumes: every finished run is
// already on disk, and a rerun over the same directory restores it instead
// of simulating (DESIGN.md §11). A run that throws becomes one RunError for
// its workload; the rest of the sweep still runs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "sim/experiment.hpp"
#include "sim/technique.hpp"
#include "trace/workloads.hpp"

namespace esteem::sim {

struct SweepSpec {
  SystemConfig config;
  std::vector<trace::Workload> workloads;
  /// Techniques to compare against the baseline (do not list the baseline).
  std::vector<Technique> techniques{Technique::Esteem, Technique::RefrintRPV};
  std::uint64_t seed = 42;
  instr_t instr_per_core = 8'000'000;
  instr_t warmup_instr_per_core = 0;
  /// 0 = use hardware concurrency.
  unsigned threads = 0;
};

struct WorkloadRow {
  std::string workload;
  /// One slot per spec technique (always full-size). Slots are only
  /// meaningful when `completed` is true.
  std::vector<TechniqueComparison> comparisons;
  /// False when any of this workload's runs threw (see SweepResult::errors
  /// for the first failing run).
  bool completed = false;
  /// True when the row was never evaluated because shutdown was requested
  /// mid-sweep; such rows carry no error and re-run on resume.
  bool skipped = false;
};

/// One failed workload evaluation, recorded instead of terminating the sweep.
struct RunError {
  std::string workload;
  std::string technique;  ///< Technique running when the exception escaped.
  std::string what;       ///< exception::what().
};

struct SweepResult {
  std::vector<Technique> techniques;
  std::vector<WorkloadRow> rows;
  std::vector<RunError> errors;  ///< One entry per failed workload.
  /// True when a shutdown request (SIGINT/SIGTERM or request_shutdown())
  /// cut the sweep short; skipped rows mark the unevaluated workloads.
  bool interrupted = false;

  bool ok() const noexcept { return errors.empty() && !interrupted; }

  /// Paper-style averages over completed workloads for one technique:
  /// speedups are geometric means; every other metric is an arithmetic mean
  /// (§6.4). Errored rows are skipped; throws std::runtime_error when no
  /// row completed.
  TechniqueComparison summary(Technique t) const;
};

/// Runs the sweep. Serial (threads = 1) and threaded schedules produce
/// bit-identical rows: every (workload, technique) cell is written by
/// exactly one thread into a preallocated slot, and the simulation itself is
/// deterministic in the spec. Throws std::invalid_argument when there are
/// no workloads, or a technique is the baseline or is listed twice.
SweepResult run_sweep(const SweepSpec& spec);

/// Sweep worker count for a `--jobs`/`threads` request: 0 -> hardware
/// concurrency (>= 1), anything else as given.
unsigned resolve_threads(unsigned requested) noexcept;

/// The RunSpec a sweep cell evaluates — the single definition of how a
/// (workload, technique) cell expands the SweepSpec.
RunSpec sweep_run_spec(const SweepSpec& spec, const trace::Workload& workload,
                       Technique technique);

}  // namespace esteem::sim
