#include "validation/reports.hpp"

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/overhead.hpp"
#include "edram/ecc.hpp"
#include "edram/retention.hpp"
#include "energy/cacti_table.hpp"
#include "sim/experiment.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/workloads.hpp"
#include "validation/figures.hpp"

namespace esteem::validation {

namespace {

constexpr std::uint64_t MB = 1024ULL * 1024;

// Table 1: the workloads used in the paper, with the synthetic-profile
// parameters this reproduction models them with.
std::string table1() {
  TextTable singles;
  singles.set_header({"benchmark", "acr", "mem-ratio", "store-ratio", "ws",
                      "stream", "chase", "non-LRU", "phases", "class"});
  for (const auto& p : trace::all_profiles()) {
    singles.add_row({std::string(p.name), std::string(p.acronym),
                     fmt(p.mem_ratio, 2), fmt(p.store_ratio, 2),
                     fmt(p.ws_kb / 1024.0, 2) + "MB", fmt(p.streaming_frac, 2),
                     fmt(p.chase_frac, 2), p.non_lru ? "yes" : "no",
                     std::to_string(p.phases), p.hpc ? "HPC" : "SPEC06"});
  }
  TextTable pairs;
  pairs.set_header({"pair", "core 0", "core 1"});
  for (const auto& w : trace::dual_core_workloads()) {
    pairs.add_row({w.name, w.benchmarks[0], w.benchmarks[1]});
  }
  return "Table 1 (upper): single-core workloads and synthetic profiles\n" +
         singles.to_string() + "\n" +
         "Table 1 (lower): dual-core multiprogrammed pairs\n" + pairs.to_string();
}

// Table 2: eDRAM L2 energy parameters (CACTI 5.3 at 32 nm, per the paper),
// plus the interpolation used for non-tabulated sizes, and the implied
// baseline L2 power split at 50 us retention.
std::string table2() {
  TextTable t;
  t.set_header({"L2 size", "E_dyn (nJ/access)", "P_leak (W)",
                "refresh power @50us (W)", "refresh share of idle L2"});
  for (std::uint64_t mb : {2ULL, 3ULL, 4ULL, 6ULL, 8ULL, 12ULL, 16ULL, 24ULL, 32ULL}) {
    const auto p = energy::l2_energy_params(mb * MB);
    // All lines refreshed once per 50 us: lines/period / period = lines/s.
    const double lines = static_cast<double>(mb * MB / 64);
    const double refresh_w = lines / 50e-6 * p.e_dyn_nj_per_access * 1e-9;
    const double share = refresh_w / (refresh_w + p.p_leak_watts);
    const bool tabulated = (mb & (mb - 1)) == 0 || mb == 2;
    t.add_row({std::to_string(mb) + "MB" + (tabulated ? "" : " (interp)"),
               fmt(p.e_dyn_nj_per_access, 3), fmt(p.p_leak_watts, 3),
               fmt(refresh_w, 3), fmt(100.0 * share, 1) + "%"});
  }
  return "Table 2: energy values for 16-way eDRAM cache (paper values at\n"
         "2/4/8/16/32 MB; log-space interpolation elsewhere)\n" +
         t.to_string() +
         "\nThe refresh share column reproduces the paper's §1 claim that\n"
         "refresh is ~70% of eDRAM LLC energy (leakage most of the rest).\n";
}

// Equation 1 / §5: ESTEEM's counter-storage overhead as a percentage of the
// L2 cache, swept over module count, associativity, and cache size.
std::string eq1() {
  TextTable t;
  t.set_header({"L2 size", "ways", "modules", "counter bits", "overhead %"});
  for (std::uint64_t mb : {2ULL, 4ULL, 8ULL}) {
    for (std::uint32_t ways : {8u, 16u, 32u}) {
      for (std::uint32_t modules : {8u, 16u, 32u}) {
        core::OverheadInputs in;
        in.ways = ways;
        in.modules = modules;
        in.sets = mb * MB / (64ULL * ways);
        t.add_row({std::to_string(mb) + "MB", std::to_string(ways),
                   std::to_string(modules),
                   std::to_string(core::counter_storage_bits(in)),
                   fmt(core::overhead_percent(in), 4)});
      }
    }
    t.add_separator();
  }
  const core::OverheadInputs paper_point;  // 4 MB, 16-way, 16 modules
  return "Equation (1): counter storage overhead of ESTEEM\n" + t.to_string() +
         "\nPaper's reference point (4MB, 16-way, 16 modules): " +
         fmt(core::overhead_percent(paper_point), 4) +
         "%\n(paper reports 0.06%, i.e. always < 0.1% of the L2, §1.1/§5)\n";
}

/// The scale a report runs at when it runs `instr` instructions per core.
ScaleSpec with_instr(ScaleSpec scale, instr_t instr) {
  scale.instr_per_core = instr;
  return scale;
}

struct SensitivityRow {
  std::string label;
  std::function<void(SystemConfig&)> mutate;  // applied to the default config
  double interval_factor = 1.0;               // Table 3's 5M/15M rows
};

std::vector<SensitivityRow> sensitivity_rows(bool dual) {
  std::vector<SensitivityRow> rows;
  rows.push_back({"default", [](SystemConfig&) {}});
  rows.push_back({"Amin=2", [](SystemConfig& c) { c.esteem.a_min = 2; }});
  rows.push_back({"Amin=4", [](SystemConfig& c) { c.esteem.a_min = 4; }});
  rows.push_back({"alpha=0.95", [](SystemConfig& c) { c.esteem.alpha = 0.95; }});
  rows.push_back({"alpha=0.99", [](SystemConfig& c) { c.esteem.alpha = 0.99; }});
  // Module-count rows differ between the two systems (defaults 8 vs 16).
  const std::vector<std::uint32_t> module_counts =
      dual ? std::vector<std::uint32_t>{4, 8, 32, 64}
           : std::vector<std::uint32_t>{2, 4, 16, 32};
  for (std::uint32_t m : module_counts) {
    rows.push_back({std::to_string(m) + " modules",
                    [m](SystemConfig& c) { c.esteem.modules = m; }});
  }
  rows.push_back({"5M interval", [](SystemConfig&) {}, 0.5});
  rows.push_back({"15M interval", [](SystemConfig&) {}, 1.5});
  rows.push_back({"Rs=32", [](SystemConfig& c) { c.esteem.sampling_ratio = 32; }});
  rows.push_back({"Rs=128", [](SystemConfig& c) { c.esteem.sampling_ratio = 128; }});
  rows.push_back({"8-way L2", [](SystemConfig& c) { c.l2.geom.ways = 8; }});
  rows.push_back({"32-way L2", [](SystemConfig& c) { c.l2.geom.ways = 32; }});
  const std::uint64_t half = dual ? 4 : 2, twice = dual ? 16 : 8;
  rows.push_back({std::to_string(half) + "MB L2", [half](SystemConfig& c) {
                    c.l2.geom.size_bytes = half * MB;
                  }});
  rows.push_back({std::to_string(twice) + "MB L2", [twice](SystemConfig& c) {
                    c.l2.geom.size_bytes = twice * MB;
                  }});
  return rows;
}

void sensitivity_section(std::ostringstream& os, ReportOutput& out, bool dual,
                         const ScaleSpec& scale, instr_t instr) {
  const std::vector<trace::Workload> workloads =
      dual ? trace::dual_core_workloads() : trace::single_core_workloads();
  os << (dual ? "Two" : "Single") << "-core system (" << workloads.size()
     << " workloads, " << instr << " instr/core per run)\n";

  TextTable t;
  t.set_header({"configuration", "energy-saving%", "rel-perf", "RPKI-dec",
                "MPKI-inc", "active%"});
  for (const SensitivityRow& row : sensitivity_rows(dual)) {
    SystemConfig cfg = dual ? SystemConfig::dual_core() : SystemConfig::single_core();
    row.mutate(cfg);
    apply_scaled_interval(cfg, instr, scale.interval_env_factor, row.interval_factor);
    cfg.validate();

    sim::SweepSpec spec;
    spec.config = cfg;
    spec.workloads = workloads;
    spec.techniques = {sim::Technique::Esteem};
    spec.instr_per_core = instr;
    spec.warmup_instr_per_core = instr / 5;
    spec.seed = scale.seed;
    spec.threads = scale.threads;

    const sim::SweepResult result = sim::run_sweep(spec);
    out.ok &= result.ok();
    const sim::TechniqueComparison s = result.summary(sim::Technique::Esteem);
    t.add_row({row.label, fmt(s.energy_saving_pct, 2), fmt(s.weighted_speedup, 2),
               fmt(s.rpki_decrease, 1), fmt(s.mpki_increase, 2),
               fmt(s.active_ratio_pct, 2)});
  }
  os << t.to_string() << '\n';
}

// Table 3: parameter sensitivity. One row per parameter variation (one
// parameter changed from the defaults at a time), over every workload of
// the single-core and dual-core systems, at 50 us retention and half the
// scale's instruction budget.
ReportOutput table3(const ScaleSpec& scale) {
  const instr_t instr = scale.instr_per_core / 2;
  ReportOutput out;
  std::ostringstream os;
  os << "Table 3: ESTEEM parameter sensitivity (50us retention).\n"
        "Each row changes one parameter from the defaults.\n\n";
  sensitivity_section(os, out, false, scale, instr);
  sensitivity_section(os, out, true, scale, instr);
  out.text = os.str();
  return out;
}

struct Variant {
  std::string label;
  sim::Technique technique;
  std::function<void(SystemConfig&)> mutate;
};

// Ablation of ESTEEM's design choices and the paper's stated extensions:
// the non-LRU guard (Algorithm 1, lines 4-13), valid-only refresh alone
// (periodic-valid), Refrint RPD as a cautionary comparison, and the §7.2
// future-work per-interval way-delta cap and reconfiguration hysteresis.
std::string ablation(const ScaleSpec& scale) {
  const ScaleSpec half = with_instr(scale, scale.instr_per_core / 2);
  const SystemConfig base_cfg = scaled_single(half);
  std::ostringstream os;
  os << scale_banner("Ablation: ESTEEM design choices and extensions", base_cfg,
                     half.instr_per_core, scale.threads);

  // gamess/gobmk: cache-friendly; h264ref: phased; omnetpp/xalancbmk:
  // non-LRU (the guard's target); libquantum: streaming; mcf: huge WS.
  const std::vector<std::string> benchmarks{
      "gamess", "gobmk", "h264ref", "omnetpp", "xalancbmk", "libquantum", "mcf"};

  auto no_damping = [](SystemConfig& c) {
    c.esteem.hysteresis_intervals = 0;
    c.esteem.shrink_confirm_intervals = 0;
  };
  const std::vector<Variant> variants{
      {"ESTEEM (bench default)", sim::Technique::Esteem, [](SystemConfig&) {}},
      {"ESTEEM, no damping (paper base)", sim::Technique::Esteem, no_damping},
      {"ESTEEM, no history smoothing", sim::Technique::Esteem,
       [](SystemConfig& c) { c.esteem.history_weight = 0.0; }},
      {"ESTEEM, no smoothing + guard off", sim::Technique::Esteem,
       [](SystemConfig& c) {
         c.esteem.history_weight = 0.0;
         c.esteem.nonlru_guard = false;
       }},
      {"ESTEEM + way-delta cap 2", sim::Technique::Esteem,
       [](SystemConfig& c) { c.esteem.max_way_delta = 2; }},
      {"ESTEEM, 1 module (uniform ways)", sim::Technique::Esteem,
       [](SystemConfig& c) { c.esteem.modules = 1; }},
      {"periodic-valid refresh only", sim::Technique::PeriodicValid,
       [](SystemConfig&) {}},
      {"Refrint RPD", sim::Technique::RefrintRPD, [](SystemConfig&) {}},
      {"Smart-Refresh", sim::Technique::SmartRefresh, [](SystemConfig&) {}},
      {"ECC-extended refresh", sim::Technique::EccExtended, [](SystemConfig&) {}},
      {"Cache Decay (block-level)", sim::Technique::CacheDecay, [](SystemConfig&) {}},
  };

  for (const std::string& b : benchmarks) {
    sim::RunSpec spec;
    spec.config = base_cfg;
    spec.technique = sim::Technique::BaselinePeriodicAll;
    spec.workload = {b, {b}};
    spec.instr_per_core = half.instr_per_core;
    spec.warmup_instr_per_core = half.instr_per_core / 5;
    spec.seed = scale.seed;
    // Cached: the per-benchmark baseline is shared with any figure that
    // already ran in this process (and with repeat invocations that pass
    // the same --journal DIR).
    const std::shared_ptr<const sim::RunOutcome> base =
        sim::run_experiment_cached(spec);

    TextTable t;
    t.set_header({"variant", "energy-saving%", "speedup", "MPKI-inc", "active%",
                  "transitions"});
    for (const Variant& v : variants) {
      sim::RunSpec vs = spec;
      v.mutate(vs.config);
      vs.technique = v.technique;
      const auto out = sim::run_experiment_cached(vs);
      const sim::TechniqueComparison c = sim::compare(b, v.technique, *base, *out);
      t.add_row({v.label, fmt(c.energy_saving_pct, 2), fmt(c.weighted_speedup, 3),
                 fmt(c.mpki_increase, 3), fmt(c.active_ratio_pct, 1),
                 std::to_string(out->raw.counters.transitions)});
    }
    os << b << ":\n" << t.to_string() << '\n';
  }

  os << "Expected shapes: removing damping and/or history smoothing brings back\n"
        "the way-churn that scaled-down intervals suffer (more transitions and\n"
        "MPKI, especially on omnetpp/xalancbmk, where the non-LRU guard is the\n"
        "remaining protection); a single module (classic uniform selective-ways,\n"
        "§2 [5]) loses most of ESTEEM's per-module advantage on non-LRU apps;\n"
        "RPD over-invalidates read-reuse workloads (why the paper excludes it,\n"
        "§6.2); block-level Cache Decay pays per-line mispredictions that\n"
        "ESTEEM's interval-level decisions avoid.\n";
  return os.str();
}

// Motivation data behind the paper's §1-§2 narrative (not a numbered
// figure): (a) eDRAM replaces SRAM for large LLCs because SRAM leaks ~8x
// more, but (b) refresh then dominates eDRAM energy -- exactly the overhead
// ESTEEM attacks -- and (c) retention (hence refresh cost) worsens with
// temperature.
std::string motivation() {
  // (a)+(b): idle-power comparison, SRAM vs eDRAM LLC at 50 us retention.
  // The paper cites eDRAM leakage at ~1/8th of SRAM's (§1, ref [4]).
  TextTable power;
  power.set_header({"LLC size", "SRAM leak (W)", "eDRAM leak (W)",
                    "eDRAM refresh (W)", "eDRAM total (W)", "eDRAM/SRAM"});
  for (std::uint64_t mb : {2ULL, 4ULL, 8ULL, 16ULL, 32ULL}) {
    const auto p = energy::l2_energy_params(mb * MB);
    const double sram_leak = 8.0 * p.p_leak_watts;
    const double lines = static_cast<double>(mb * MB / 64);
    const double refresh = lines / 50e-6 * p.e_dyn_nj_per_access * 1e-9;
    const double edram_total = p.p_leak_watts + refresh;
    power.add_row({std::to_string(mb) + "MB", fmt(sram_leak, 3),
                   fmt(p.p_leak_watts, 3), fmt(refresh, 3), fmt(edram_total, 3),
                   fmt(edram_total / sram_leak, 2)});
  }

  // (c): retention vs temperature (calibrated on the paper's two points).
  TextTable temp;
  temp.set_header({"temperature (C)", "retention (us)",
                   "4MB refresh power (W)", "vs 60C"});
  const auto p4 = energy::l2_energy_params(4 * MB);
  const double lines4 = 4.0 * MB / 64;
  const double base_refresh =
      lines4 / (edram::retention_us_at(60.0) * 1e-6) * p4.e_dyn_nj_per_access * 1e-9;
  for (double t : {40.0, 60.0, 80.0, 105.0, 120.0}) {
    const double ret = edram::retention_us_at(t);
    const double refresh = lines4 / (ret * 1e-6) * p4.e_dyn_nj_per_access * 1e-9;
    temp.add_row({fmt(t, 0), fmt(ret, 1), fmt(refresh, 3),
                  fmt(refresh / base_refresh, 2) + "x"});
  }
  return "Idle LLC power: SRAM vs eDRAM (50us retention)\n" + power.to_string() +
         "\neDRAM wins on total power, but refresh -- not leakage -- is its\n"
         "dominant component: the overhead ESTEEM eliminates for turned-off\n"
         "and invalid lines.\n\n"
         "Retention and refresh power vs temperature (exponential model\n"
         "fit through 50us@60C and 40us@105C, paper §6.1)\n" +
         temp.to_string() +
         "\nHotter parts refresh more often; §7.3's 40us results correspond to\n"
         "the 105C point, where ESTEEM's advantage grows further.\n";
}

// Resilience cliff for ECC-extended refresh under live fault injection. The
// ECC extension is provisioned analytically for the configured retention
// spread, so at the chosen extension corrections should be the whole story.
// Widening sigma step by step shows the transition: a clean run, then a
// growing correctable tail, then -- once the analytic model and the sampled
// weak-cell population disagree badly enough -- refetches, data-loss events
// and retired (disabled) slots.
std::string faults(const ScaleSpec& scale) {
  const ScaleSpec quarter = with_instr(scale, scale.instr_per_core / 4);
  const SystemConfig base_cfg = scaled_single(quarter);
  std::ostringstream os;
  os << scale_banner("Fault injection: ECC-extended refresh resilience", base_cfg,
                     quarter.instr_per_core, scale.threads);

  const std::string benchmark = "h264ref";
  sim::RunSpec ref_spec;
  ref_spec.config = base_cfg;
  ref_spec.technique = sim::Technique::EccExtended;
  ref_spec.workload = {benchmark, {benchmark}};
  ref_spec.instr_per_core = quarter.instr_per_core;
  ref_spec.warmup_instr_per_core = quarter.instr_per_core / 5;
  ref_spec.seed = scale.seed;
  const sim::RunOutcome ref = sim::run_experiment(ref_spec);

  TextTable t;
  t.set_header({"sigma", "ext", "line-events", "corrected", "corr-reads",
                "refetch", "data-loss", "disabled", "dE-total%", "dIPC%"});
  for (double sigma : {0.35, 0.5, 0.65, 0.8, 1.0}) {
    sim::RunSpec spec = ref_spec;
    spec.config.faults.enabled = true;
    spec.config.faults.sigma = sigma;
    const sim::RunOutcome out = sim::run_experiment(spec);

    const edram::CellRetentionModel model{spec.config.faults.median_multiple,
                                          sigma};
    const std::uint32_t bits = spec.config.l2.geom.line_bytes * 8;
    const std::uint32_t ext = edram::max_safe_extension(
        bits, spec.config.edram.ecc_correctable,
        spec.config.edram.ecc_target_line_failure, model,
        spec.config.faults.max_tracked_extension);

    const double de = (out.energy.total_j() / ref.energy.total_j() - 1.0) * 100.0;
    const double dipc = (out.raw.ipc[0] / ref.raw.ipc[0] - 1.0) * 100.0;
    const edram::FaultCounters& fc = out.raw.faults;
    t.add_row({fmt(sigma, 2), std::to_string(ext),
               std::to_string(fc.corrected_lines + fc.uncorrectable()),
               std::to_string(fc.corrected_lines),
               std::to_string(fc.corrected_reads),
               std::to_string(fc.refetches),
               std::to_string(fc.data_loss_events),
               std::to_string(fc.disabled_lines), fmt(de, 3), fmt(dipc, 3)});
  }
  os << benchmark << ", ECC-extended, faults on (vs. faults off):\n"
     << t.to_string() << '\n';

  os << "Expected shape: the provisioned extension shrinks as sigma widens (a\n"
        "wider spread reaches the analytic target sooner), and once sigma is\n"
        "extreme the weak tail reaches the nominal interval itself: corrections\n"
        "appear even at extension 1. As long as the analytic target holds,\n"
        "everything the tail produces is corrected (refetch/data-loss/disabled\n"
        "all zero) at a small energy and IPC cost. Counts are seeded and\n"
        "reproducible (--seed moves the workload streams; the weak-cell\n"
        "map is keyed by the [faults] seed).\n";
  return os.str();
}

/// A report that needs no scale (closed-form tables).
Report fixed(std::string id, std::string summary, std::string (*text)()) {
  return {std::move(id), std::move(summary),
          [text](const ScaleSpec&) { return ReportOutput{text(), true}; }};
}

/// A report that runs single experiments at the scale (no sweep to fail).
Report scaled(std::string id, std::string summary,
              std::string (*text)(const ScaleSpec&)) {
  return {std::move(id), std::move(summary),
          [text](const ScaleSpec& scale) { return ReportOutput{text(scale), true}; }};
}

Report figure(const FigureSpec& spec) {
  return {spec.id, spec.title, [&spec](const ScaleSpec& scale) {
            const FigureResult result = run_figure(spec, scale);
            return ReportOutput{figure_text(result), result.sweep.ok()};
          }};
}

}  // namespace

const std::vector<Report>& reports() {
  static const std::vector<Report> kReports = [] {
    std::vector<Report> r;
    r.push_back(fixed("table1", "Table 1: workloads and their synthetic profiles",
                      table1));
    r.push_back(fixed("table2", "Table 2: eDRAM energy values and refresh share",
                      table2));
    r.push_back(fixed("eq1", "Equation (1): ESTEEM counter storage overhead", eq1));
    r.push_back(scaled("fig2", "Figure 2: ESTEEM reconfiguration timeline (h264ref)",
                       [](const ScaleSpec& scale) { return run_fig2(scale).text; }));
    for (const FigureSpec& f : figure_matrix()) r.push_back(figure(f));
    r.push_back({"table3", "Table 3: ESTEEM parameter sensitivity (half --instr)",
                 table3});
    r.push_back(scaled("ablation",
                       "Ablation: ESTEEM design choices and extensions (half --instr)",
                       ablation));
    r.push_back(fixed("motivation",
                      "Motivation: SRAM vs eDRAM idle power, retention vs temperature",
                      motivation));
    r.push_back(scaled("faults",
                       "Fault injection: ECC-extended refresh resilience "
                       "(quarter --instr)",
                       faults));
    return r;
  }();
  return kReports;
}

const Report* find_report(const std::string& id) {
  for (const Report& r : reports()) {
    if (r.id == id) return &r;
  }
  return nullptr;
}

}  // namespace esteem::validation
