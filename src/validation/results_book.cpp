#include "validation/results_book.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "core/overhead.hpp"
#include "energy/cacti_table.hpp"

namespace esteem::validation {

namespace {

std::string f(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

/// One horizontal ASCII bar, `width` characters at `vmax`.
std::string bar(double v, double vmax, int width) {
  if (vmax <= 0.0) vmax = 1.0;
  int n = static_cast<int>(std::lround(v / vmax * width));
  n = std::clamp(n, 0, width);
  std::string out(static_cast<std::size_t>(n), '#');
  return out;
}

void render_figure(std::ostringstream& os, const FigureResult& r) {
  const FigureSpec& spec = *r.spec;
  os << "### " << spec.title << "\n\n";
  os << spec.claim << "\n\n";

  os << "| workload |";
  for (const FigureMetric& m : figure_metrics()) {
    os << ' ' << (m.heading != nullptr ? m.heading : m.label) << " |";
  }
  os << "\n|---|";
  for (std::size_t i = 0; i < figure_metrics().size(); ++i) os << "---|";
  os << '\n';
  for (const sim::WorkloadRow& row : r.sweep.rows) {
    os << "| " << row.workload << " |";
    if (!row.completed) {
      os << " error |";
      for (std::size_t i = 1; i < figure_metrics().size(); ++i) os << " |";
      os << '\n';
      continue;
    }
    // Technique slot order is fixed by run_figure: 0 = ESTEEM, 1 = RPV.
    for (const FigureMetric& m : figure_metrics()) {
      os << ' ' << f(m.read(row.comparisons[0], row.comparisons[1]), m.digits) << " |";
    }
    os << '\n';
  }
  os << "| **average** |";
  for (const FigureMetric& m : figure_metrics()) {
    os << " **" << f(m.read(r.esteem, r.rpv), m.digits) << "** |";
  }
  os << "\n\n";

  if (!spec.paper_averages_are_reference_only) {
    os << "Paper-reported averages: ESTEEM " << f(spec.paper.esteem_energy_pct, 2)
       << "% / RPV " << f(spec.paper.rpv_energy_pct, 2)
       << "% energy saving, WS " << f(spec.paper.esteem_ws, 2) << " / "
       << f(spec.paper.rpv_ws, 2) << ", RPKI decrease "
       << f(spec.paper.esteem_rpki_dec, 0) << " / "
       << f(spec.paper.rpv_rpki_dec, 0) << ".\n\n";
  } else {
    os << "The paper reports no separate averages for this figure "
          "(§7.3 states only that savings exceed the 50 us case).\n\n";
  }

  // Bar chart: per-workload energy saving, ESTEEM (E) vs RPV (R).
  double vmax = 0.0;
  for (const sim::WorkloadRow& row : r.sweep.rows) {
    if (!row.completed) continue;
    vmax = std::max({vmax, row.comparisons[0].energy_saving_pct,
                     row.comparisons[1].energy_saving_pct});
  }
  os << "```\n";
  os << "energy saving % (E = ESTEEM, R = Refrint RPV; full bar = "
     << f(vmax, 1) << "%)\n";
  for (const sim::WorkloadRow& row : r.sweep.rows) {
    if (!row.completed) continue;
    char line[160];
    std::snprintf(line, sizeof line, "%-6s E %-40s %6.2f\n", row.workload.c_str(),
                  bar(row.comparisons[0].energy_saving_pct, vmax, 40).c_str(),
                  row.comparisons[0].energy_saving_pct);
    os << line;
    std::snprintf(line, sizeof line, "%-6s R %-40s %6.2f\n", "",
                  bar(row.comparisons[1].energy_saving_pct, vmax, 40).c_str(),
                  row.comparisons[1].energy_saving_pct);
    os << line;
  }
  os << "```\n\n";

  os << "Regenerate: `./build/tools/esteem_validate --print " << spec.id
     << " --scale bench`\n\n";
}

}  // namespace

ExactChecks run_exact_checks(const ScaleSpec& scale) {
  ExactChecks checks;

  // Table 2 at the simulated 4 MB L2: all lines refreshed once per 50 us.
  constexpr std::uint64_t kL2Bytes = 4ULL * 1024 * 1024;
  const auto p = energy::l2_energy_params(kL2Bytes);
  const double lines = static_cast<double>(kL2Bytes / 64);
  const double refresh_w = lines / 50e-6 * p.e_dyn_nj_per_access * 1e-9;
  checks.refresh_share_pct = 100.0 * refresh_w / (refresh_w + p.p_leak_watts);

  core::OverheadInputs paper_point;  // 4 MB, 16-way, 16 modules
  checks.overhead_pct = core::overhead_percent(paper_point);

  checks.fig2 = run_fig2(scale);
  return checks;
}

std::string results_book_markdown(const std::vector<FigureResult>& results,
                                  const Scorecard& card,
                                  const ExactChecks& checks) {
  std::ostringstream os;
  os << "# Results book\n\n";
  os << "<!-- Generated by `esteem_validate --results`; do not edit by hand.\n";
  os << "     Regenerate with: ./build/tools/esteem_validate --results "
        "--scale bench > RESULTS.md -->\n\n";
  os << "Measured reproduction of the evaluation figures of *Improving energy\n"
        "efficiency of embedded DRAM caches for high-end computing systems*\n"
        "(ESTEEM, HPDC 2014), run through this repository's simulator at a\n"
        "scaled-down instruction budget. Paper context and the claim-by-claim\n"
        "mapping live in [EXPERIMENTS.md](EXPERIMENTS.md); how the numbers are\n"
        "gated lives in [DESIGN.md](DESIGN.md) §9.\n\n";

  if (!results.empty()) {
    const ScaleSpec& s = results.front().scale;
    os << "Scale: **" << s.label << "** — "
       << s.instr_per_core / 1'000'000.0 << "M instructions/core (paper: "
          "400M), warmup " << s.warmup_per_core / 1'000'000.0
       << "M, seed " << s.seed << ", fingerprint `" << scale_fingerprint(s)
       << "`.\n\n";
  }

  os << "## Scorecard\n\n";
  os << scorecard_markdown(card) << "\n";
  os << "Gate in CI: `./build/tools/esteem_validate --check` "
        "(non-zero exit on any FAIL; see DESIGN.md §9 for tolerances).\n\n";

  os << "## Exact checks (§1, §5, Figure 2)\n\n";
  os << "| check | paper | measured | status |\n";
  os << "|---|---|---|---|\n";
  os << "| Refresh share of idle 4MB eDRAM L2 (Table 2) | ~70% | "
     << f(checks.refresh_share_pct, 1) << "% | "
     << (checks.refresh_share_pct > 60.0 && checks.refresh_share_pct < 80.0
             ? "ok" : "off")
     << " |\n";
  os << "| Counter storage overhead, 4MB/16-way/16-module (Eq 1) | 0.06% | "
     << f(checks.overhead_pct, 4) << "% | "
     << (checks.overhead_pct < 0.1 ? "ok" : "off") << " |\n";
  os << "| Modules reconfigured independently (Fig 2, h264ref) | yes | "
     << (checks.fig2.module_diversity ? "yes" : "no") << " | "
     << (checks.fig2.module_diversity ? "ok" : "off") << " |\n";
  os << "| Active ratio varies over intervals (Fig 2, h264ref) | yes | "
     << (checks.fig2.ratio_changes ? "yes" : "no") << " | "
     << (checks.fig2.ratio_changes ? "ok" : "off") << " |\n";
  os << "\nFigure 2 run-average active ratio: "
     << f(100.0 * checks.fig2.avg_active_ratio, 1) << "% over "
     << checks.fig2.intervals << " intervals "
     << "(regenerate: `./build/tools/esteem_validate --print fig2 --scale bench`).\n\n";

  os << "## Figures\n\n";
  for (const FigureResult& r : results) render_figure(os, r);

  os << "## Reproducing this file\n\n";
  os << "```sh\n";
  os << "cmake -B build -S . -DCMAKE_BUILD_TYPE=Release\n";
  os << "cmake --build build -j\n";
  os << "./build/tools/esteem_validate --results --scale bench > RESULTS.md\n";
  os << "```\n\n";
  os << "The simulator is deterministic in (scale, seed, config), so the\n"
        "regenerated file is byte-identical on the same code. Print one table\n"
        "or figure with `./build/tools/esteem_validate --print ID --scale bench`\n"
        "(`--list` names the ids); the whole matrix shares one memoized run\n"
        "cache, so `--jobs`/repeat runs never recompute an experiment (pass\n"
        "`--journal DIR` to persist it).\n";
  return os.str();
}

}  // namespace esteem::validation
