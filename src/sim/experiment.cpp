#include "sim/experiment.hpp"

#include <cmath>
#include <stdexcept>

#include "common/bytes.hpp"
#include "common/config_io.hpp"
#include "edram/ecc.hpp"
#include "energy/cacti_table.hpp"
#include "sampling/sampled_run.hpp"
#include "sim/metrics.hpp"
#include "sim/run_cache.hpp"
#include "telemetry/telemetry.hpp"

namespace esteem::sim {

std::string run_label(const RunSpec& spec) {
  return telemetry::sanitize_label(spec.workload.name + "." +
                                   std::string(to_string(spec.technique)) + ".s" +
                                   std::to_string(spec.seed));
}

namespace {

/// 95% half-interval of total energy: perturbs each sampled counter by its
/// half-CI through the energy model and combines the deltas in quadrature
/// (the window estimates are close enough to independent, docs/SAMPLING.md).
sampling::Estimate energy_half_ci(const energy::EnergyModelParams& params,
                                  const energy::EnergyCounters& counters,
                                  const sampling::SamplingEstimates& est,
                                  double freq_ghz) {
  const double base = energy::compute_energy(params, counters).total_j();
  double var = 0.0;
  const auto probe = [&](const auto& mutate) {
    energy::EnergyCounters p = counters;
    mutate(p);
    const double d = energy::compute_energy(params, p).total_j() - base;
    var += d * d;
  };
  probe([&](energy::EnergyCounters& p) {
    p.l2_hits += static_cast<std::uint64_t>(est.l2_hits.half_ci + 0.5);
  });
  probe([&](energy::EnergyCounters& p) {
    p.l2_misses += static_cast<std::uint64_t>(est.l2_misses.half_ci + 0.5);
  });
  probe([&](energy::EnergyCounters& p) {
    p.mm_accesses += static_cast<std::uint64_t>(est.mm_accesses.half_ci + 0.5);
  });
  probe([&](energy::EnergyCounters& p) {
    p.refreshes += static_cast<std::uint64_t>(est.refreshes.half_ci + 0.5);
  });
  probe([&](energy::EnergyCounters& p) {
    p.ecc_corrections +=
        static_cast<std::uint64_t>(est.corrected_reads.half_ci + 0.5);
  });
  probe([&](energy::EnergyCounters& p) {
    // Wall-time uncertainty moves leakage and the F_A-weighted terms
    // together (F_A itself is a time ratio and cancels).
    const double dt = est.wall_cycles.half_ci / (freq_ghz * 1e9);
    p.seconds += dt;
    p.fa_seconds += dt * est.fa_fraction;
  });
  return sampling::Estimate{base, std::sqrt(var)};
}

/// Metric + CI view of one run that works for exhaustive runs too (CI 0).
sampling::Estimate energy_estimate(const RunOutcome& o) {
  return o.estimates.enabled ? o.estimates.energy_j
                             : sampling::Estimate{o.energy.total_j(), 0.0};
}

sampling::Estimate ipc_estimate(const RunOutcome& o, std::size_t core) {
  return o.estimates.enabled ? o.estimates.ipc[core]
                             : sampling::Estimate{o.raw.ipc[core], 0.0};
}

}  // namespace

namespace {

std::string config_bytes(const SystemConfig& cfg) {
  ByteWriter w;
  write_config_bytes(w, cfg);
  return w.take();
}

/// The energy-model parameters of a run.
energy::EnergyModelParams energy_params(const RunSpec& spec) {
  energy::EnergyModelParams params;
  params.l2 = energy::l2_energy_params(spec.config.l2.geom.size_bytes);
  params.refresh_scale = spec.config.energy.refresh_scale;
  if (spec.technique == Technique::EccExtended) {
    // ECC check bits enlarge the array: leakage and per-access energy grow
    // by the storage overhead.
    const double overhead = edram::ecc_storage_overhead(
        spec.config.l2.geom.line_bytes * 8, spec.config.edram.ecc_correctable);
    params.l2.p_leak_watts *= 1.0 + overhead;
    params.l2.e_dyn_nj_per_access *= 1.0 + overhead;
  }
  return params;
}

}  // namespace

bool can_fuse(const RunSpec& a, const RunSpec& b) {
  return cpu::shares_stream(a.config) && a.workload.name == b.workload.name &&
         a.workload.benchmarks == b.workload.benchmarks && a.seed == b.seed &&
         a.instr_per_core == b.instr_per_core &&
         a.warmup_instr_per_core == b.warmup_instr_per_core &&
         config_bytes(a.config) == config_bytes(b.config);
}

RunOutcome run_experiment(const RunSpec& spec,
                          telemetry::IntervalRecorder* intervals) {
  return std::move(run_experiment(std::vector<RunSpec>{spec}, {intervals}).front());
}

std::vector<RunOutcome> run_experiment(
    const std::vector<RunSpec>& group,
    const std::vector<telemetry::IntervalRecorder*>& intervals) {
  if (group.empty()) throw std::invalid_argument("run_experiment: empty group");
  if (!intervals.empty() && intervals.size() != group.size()) {
    throw std::invalid_argument("run_experiment: one interval recorder per spec");
  }
  const RunSpec& first = group.front();
  for (std::size_t i = 1; i < group.size(); ++i) {
    if (!can_fuse(first, group[i])) {
      throw std::invalid_argument("run_experiment: " + run_label(group[i]) +
                                  " cannot share a pass with " + run_label(first));
    }
  }
  telemetry::Telemetry& tel = telemetry::Telemetry::instance();

  // Per-run sinks recording the interval series: the hub's when telemetry
  // is on, else a private one for a caller that asked for the series, else
  // none.
  const std::size_t n = group.size();
  std::vector<std::unique_ptr<telemetry::RunSink>> sinks(n);
  std::vector<telemetry::RunSink*> run_sinks(n, nullptr);
  std::vector<Technique> techniques(n);
  for (std::size_t i = 0; i < n; ++i) {
    const RunSpec& spec = group[i];
    techniques[i] = spec.technique;
    const std::uint32_t modules =
        spec.technique == Technique::Esteem ? spec.config.esteem.modules : 0;
    std::vector<std::string> columns = telemetry::interval_columns(modules);
    std::unique_ptr<telemetry::RunSink>& sink = sinks[i];
    sink = tel.begin_run(run_label(spec), spec.config.freq_ghz, columns);
    if (!sink && !intervals.empty() && intervals[i] != nullptr) {
      sink = std::make_unique<telemetry::RunSink>(run_label(spec), spec.config.freq_ghz,
                                                  std::move(columns));
    }
    run_sinks[i] = sink.get();
  }

  cpu::System system(first.config, techniques, first.workload.benchmarks, first.seed);

  cpu::RunOptions options;
  options.instr_per_core = first.instr_per_core;
  options.warmup_instr_per_core = first.warmup_instr_per_core;
  options.seed = first.seed;

  std::vector<RunOutcome> outcomes(n);
  if (first.config.sampling.enabled) {
    // Sampled runs never fuse: this is a group of one.
    sampling::SampledRunResult sampled =
        sampling::run_sampled(system, options, first.config.sampling, run_sinks[0]);
    outcomes[0].raw = std::move(sampled.raw);
    outcomes[0].estimates = std::move(sampled.estimates);
  } else {
    std::vector<cpu::RawRunResult> raw = system.run_group(options, run_sinks);
    for (std::size_t i = 0; i < n; ++i) outcomes[i].raw = std::move(raw[i]);
  }

  for (std::size_t i = 0; i < n; ++i) {
    const RunSpec& spec = group[i];
    RunOutcome& outcome = outcomes[i];
    const energy::EnergyModelParams params = energy_params(spec);
    outcome.energy = energy::compute_energy(params, outcome.raw.counters);
    if (outcome.estimates.enabled) {
      outcome.estimates.energy_j = energy_half_ci(
          params, outcome.raw.counters, outcome.estimates, spec.config.freq_ghz);
    }

    if (sinks[i]) tel.end_run(*sinks[i]);
    if (!intervals.empty() && intervals[i] != nullptr) {
      *intervals[i] = std::move(sinks[i]->recorder);
    }
  }
  return outcomes;
}

TechniqueComparison compare(const std::string& workload, Technique technique,
                            const RunOutcome& baseline, const RunOutcome& tech) {
  TechniqueComparison c;
  c.workload = workload;
  c.technique = technique;
  c.energy_saving_pct = energy::percent_energy_saving(baseline.energy, tech.energy);
  c.weighted_speedup = weighted_speedup(baseline.raw.ipc, tech.raw.ipc);
  c.fair_speedup = fair_speedup(baseline.raw.ipc, tech.raw.ipc);

  const instr_t instr = baseline.raw.total_instructions;
  c.rpki_base = per_kilo_instructions(baseline.raw.refreshes, instr);
  c.rpki_tech = per_kilo_instructions(tech.raw.refreshes, instr);
  c.rpki_decrease = c.rpki_base - c.rpki_tech;
  c.mpki_base = per_kilo_instructions(baseline.raw.demand_misses, instr);
  c.mpki_tech = per_kilo_instructions(tech.raw.demand_misses, instr);
  c.mpki_increase = c.mpki_tech - c.mpki_base;
  c.active_ratio_pct = 100.0 * tech.raw.avg_active_ratio;

  c.sampled = baseline.estimates.enabled || tech.estimates.enabled;
  if (c.sampled) {
    // Energy saving = 100 * (1 - Et/Eb): relative errors of the two runs
    // combine in quadrature on the ratio.
    const sampling::Estimate eb = energy_estimate(baseline);
    const sampling::Estimate et = energy_estimate(tech);
    if (eb.value > 0.0 && et.value > 0.0) {
      const double ratio = et.value / eb.value;
      const double rel =
          std::sqrt(eb.relative() * eb.relative() + et.relative() * et.relative());
      c.energy_saving_ci = 100.0 * ratio * rel;
    }
    // Weighted speedup is the mean of per-core IPC ratios; each ratio's
    // relative error again combines the paired runs in quadrature.
    double ws_var = 0.0;
    const std::size_t ncores = tech.raw.ipc.size();
    for (std::size_t i = 0; i < ncores; ++i) {
      const sampling::Estimate ib = ipc_estimate(baseline, i);
      const sampling::Estimate it = ipc_estimate(tech, i);
      if (ib.value <= 0.0 || it.value <= 0.0) continue;
      const double ratio = it.value / ib.value;
      const double rel =
          std::sqrt(ib.relative() * ib.relative() + it.relative() * it.relative());
      ws_var += (ratio * rel) * (ratio * rel);
    }
    if (ncores > 0) {
      c.weighted_speedup_ci =
          std::sqrt(ws_var) / static_cast<double>(ncores);
    }
    if (tech.estimates.enabled && instr > 0) {
      c.rpki_tech_ci =
          1000.0 * tech.estimates.refreshes.half_ci / static_cast<double>(instr);
      c.mpki_tech_ci = 1000.0 * tech.estimates.demand_misses.half_ci /
                       static_cast<double>(instr);
    }
    // F_A is integrated on the run's own clock, so its ratio to elapsed time
    // carries no window-sampling variance (docs/SAMPLING.md) — CI 0.
  }

  c.ecc_corrected_reads = tech.raw.faults.corrected_reads;
  c.fault_refetches = tech.raw.faults.refetches;
  c.fault_data_loss = tech.raw.faults.data_loss_events;
  c.fault_disabled_lines = tech.raw.faults.disabled_lines;
  c.correction_rpki = per_kilo_instructions(tech.raw.faults.corrected_reads, instr);
  return c;
}

TechniqueComparison run_and_compare(const RunSpec& technique_spec) {
  RunSpec base_spec = technique_spec;
  base_spec.technique = Technique::BaselinePeriodicAll;

  // Memoized: a series of run_and_compare calls over the same workload (the
  // ablation bench's variant grid) computes the baseline once.
  const std::shared_ptr<const RunOutcome> base = run_experiment_cached(base_spec);
  const std::shared_ptr<const RunOutcome> tech = run_experiment_cached(technique_spec);
  return compare(technique_spec.workload.name, technique_spec.technique, *base, *tech);
}

}  // namespace esteem::sim
