// Sweep runner: evaluates a set of techniques over a set of workloads on a
// shared work-stealing task pool (sim/task_pool.hpp), scheduling at
// (workload x technique) granularity. Each technique task depends on its
// workload's baseline task through a future fulfilled by the baseline, so
// with enough cores the sweep's wall clock approaches the slowest single
// run instead of slowest_workload x (1 + |techniques|). Every run goes
// through the process-wide RunOutcome memo cache (sim/run_cache.hpp), so
// repeated sweeps — and other benches in the same process — never recompute
// an identical experiment. With a memo directory set, that cache is also how
// a killed sweep resumes: every finished run is already on disk, and a rerun
// over the same directory restores it instead of simulating (DESIGN.md §11).
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
  /// for the first failing phase).
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
  /// Failure class: "run" for an exception escaping the simulation,
  /// "deadline" for a watchdog wall-clock overrun.
  std::string phase = "run";
};

struct SweepResult {
  std::vector<Technique> techniques;
  std::vector<WorkloadRow> rows;
  std::vector<RunError> errors;  ///< One entry per failed workload.
  /// True when a shutdown request (SIGINT/SIGTERM or request_shutdown())
  /// cut the sweep short; skipped rows mark the unevaluated workloads.
  bool interrupted = false;
  /// True when the [resilience] max_consecutive_errors circuit breaker
  /// tripped: the errors list holds the failures that tripped it and
  /// skipped rows mark the workloads never dispatched. Unlike
  /// `interrupted` this always comes with a non-empty errors list, so
  /// ok() is already false and the CLI exits 3 (workload errored).
  bool circuit_broken = false;

  bool ok() const noexcept { return errors.empty() && !interrupted; }

  /// Paper-style averages over completed workloads for one technique:
  /// speedups are geometric means; every other metric is an arithmetic mean
  /// (§6.4). Errored rows are skipped; throws std::runtime_error when no
  /// row completed.
  TechniqueComparison summary(Technique t) const;
};

/// Runs the sweep. Serial (threads = 1) and threaded schedules produce
/// bit-identical rows: every (workload, technique) cell is written by
/// exactly one task into a preallocated slot, and the simulation itself is
/// deterministic in the spec.
SweepResult run_sweep(const SweepSpec& spec);

/// The RunSpec a sweep cell evaluates — the single definition shared by the
/// in-process scheduler and the multi-process service worker, so a cell
/// computed anywhere is bit-identical to what run_sweep would produce.
RunSpec sweep_run_spec(const SweepSpec& spec, const trace::Workload& workload,
                       Technique technique);

/// run_experiment_cached under the sweep's resilience policy: a per-attempt
/// watchdog deadline (a late result is discarded and surfaces as
/// resilience::DeadlineExceeded, though the memo cache keeps it) and
/// transient failures retried with capped exponential backoff. Shared by the
/// in-process scheduler and the service worker.
std::shared_ptr<const RunOutcome> run_guarded(const RunSpec& spec,
                                              const std::string& label);

/// Maps the in-flight exception (rethrown internally) to a structured
/// RunError for `workload`/`technique` — phase "deadline" for watchdog
/// overruns, "run" otherwise. Call from a catch block only.
RunError current_exception_to_run_error(const std::string& workload,
                                        const std::string& technique);

}  // namespace esteem::sim
