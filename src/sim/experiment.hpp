// Experiment layer: runs one (workload, technique) simulation and computes
// the paper's comparison metrics against a paired baseline run (same
// workload, same seed, baseline technique).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "cpu/system.hpp"
#include "energy/energy_model.hpp"
#include "sampling/estimates.hpp"
#include "sim/technique.hpp"
#include "telemetry/interval_recorder.hpp"
#include "trace/workloads.hpp"

namespace esteem::sim {

struct RunSpec {
  SystemConfig config;
  Technique technique = Technique::BaselinePeriodicAll;
  trace::Workload workload;
  std::uint64_t seed = 42;
  instr_t instr_per_core = 8'000'000;
  /// Cache warm-up before measurement (paper: 10B-instruction fast-forward).
  instr_t warmup_instr_per_core = 0;
};

struct RunOutcome {
  cpu::RawRunResult raw;
  energy::EnergyBreakdown energy;
  /// Confidence intervals when the run was sampled ([sampling] enabled);
  /// `estimates.enabled == false` for exhaustive runs.
  sampling::SamplingEstimates estimates;
};

/// Telemetry label of a run — "<workload>.<technique>.s<seed>", sanitized
/// for file names. The interval series of a telemetry-enabled run lands in
/// <telemetry-dir>/<label>.intervals.jsonl.
std::string run_label(const RunSpec& spec);

/// Builds a System, runs it, evaluates the energy model. When the telemetry
/// hub is active this also records the per-interval time-series (which the
/// hub writes and renders into trace lanes); with telemetry off the run is
/// bit-identical and pays no instrumentation cost. A non-null `intervals` receives the run's
/// per-interval series (columns telemetry::interval_columns, with one
/// module column per ESTEEM module) whether or not the hub is on — the
/// Figure 2 timeline is read from it by column name.
RunOutcome run_experiment(const RunSpec& spec,
                          telemetry::IntervalRecorder* intervals = nullptr);

/// True when `a` and `b` may run as one group: the same config, workload,
/// seed and budgets, under a config whose runs share a reference stream
/// (cpu::shares_stream). Their techniques do not matter.
bool can_fuse(const RunSpec& a, const RunSpec& b);

/// The group form: runs every spec of `group` over one reference stream
/// (one cpu::System): the refresh-only specs share one L1/L2 pass, one
/// refresh lane each, and every other spec has a hierarchy of its own. It
/// returns one outcome per spec, in order, each bit-identical to
/// run_experiment(spec). A group of one is run_experiment itself. Throws
/// std::invalid_argument unless every spec can_fuse with the first.
/// `intervals` is empty or holds one (possibly null) recorder per spec.
std::vector<RunOutcome> run_experiment(
    const std::vector<RunSpec>& group,
    const std::vector<telemetry::IntervalRecorder*>& intervals = {});

/// run_experiment through the process-wide RunCache (sim/run_cache.hpp):
/// identical specs are simulated once per process (or once ever, with a
/// `--journal DIR` memo directory) and shared by pointer thereafter. The
/// simulator is deterministic in the spec, so a cached outcome is
/// bit-identical to a fresh run.
std::shared_ptr<const RunOutcome> run_experiment_cached(const RunSpec& spec);

/// Paper metrics for one technique vs. the paired baseline run (§6.4).
struct TechniqueComparison {
  std::string workload;
  Technique technique = Technique::Esteem;
  double energy_saving_pct = 0.0;  ///< Metric 1.
  double weighted_speedup = 1.0;   ///< Metric 2 (Eq. 9).
  double fair_speedup = 1.0;
  double rpki_base = 0.0;
  double rpki_tech = 0.0;
  double rpki_decrease = 0.0;      ///< Metric 3 (absolute).
  double mpki_base = 0.0;
  double mpki_tech = 0.0;
  double mpki_increase = 0.0;      ///< ESTEEM metric (absolute).
  double active_ratio_pct = 100.0; ///< ESTEEM metric (time-weighted F_A).

  // Resilience metrics of the technique run (all zero with faults disabled).
  std::uint64_t ecc_corrected_reads = 0;
  std::uint64_t fault_refetches = 0;       ///< Clean uncorrectable re-fetches.
  std::uint64_t fault_data_loss = 0;       ///< Dirty uncorrectable losses.
  std::uint64_t fault_disabled_lines = 0;  ///< Slots retired this run.
  double correction_rpki = 0.0;            ///< Corrected reads per kilo-instr.

  // Sampling: true when either paired run used the systematic-sampling
  // executor; the *_ci fields are 95% half-intervals for the corresponding
  // metric above (propagated from the per-run estimates — docs/SAMPLING.md).
  // All zero for exhaustive comparisons.
  bool sampled = false;
  double energy_saving_ci = 0.0;
  double weighted_speedup_ci = 0.0;
  double rpki_tech_ci = 0.0;
  double mpki_tech_ci = 0.0;
  double active_ratio_ci = 0.0;
};

TechniqueComparison compare(const std::string& workload, Technique technique,
                            const RunOutcome& baseline, const RunOutcome& tech);

/// Runs baseline + technique with paired seeds and compares.
TechniqueComparison run_and_compare(const RunSpec& technique_spec);

}  // namespace esteem::sim
