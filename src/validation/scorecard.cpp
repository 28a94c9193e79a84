#include "validation/scorecard.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

#include "common/table.hpp"

namespace esteem::validation {

namespace {

std::string f2(double v) { return fmt(v, 2); }

/// True when the Spearman requirement is satisfied. NaN means the
/// correlation was not computable (fewer than two workloads, or a constant
/// series); with matching workload sets that is a degenerate-but-consistent
/// state, not drift, so it passes.
bool spearman_ok(double rho, double min_rho) {
  return std::isnan(rho) || rho >= min_rho;
}

void add_drift_band(std::vector<BandCheck>& bands, const std::string& name,
                    double measured, double reference, double tol, bool relative) {
  bands.push_back({name, measured, reference, tol, relative});
}

}  // namespace

bool FigureScore::pass(const DriftTolerances& tol) const {
  if (!ran) return false;
  for (const SignClaim& c : paper_signs) {
    if (!c.agrees()) return false;
  }
  for (const BandCheck& b : paper_bands) {
    if (!b.pass()) return false;
  }
  if (!golden_found) return false;
  if (!workloads_match) return false;
  for (const BandCheck& b : drift_bands) {
    if (!b.pass()) return false;
  }
  return spearman_ok(spearman_vs_golden, tol.min_spearman);
}

bool Scorecard::pass() const {
  for (const FigureScore& f : figures) {
    if (!f.pass(drift_tol)) return false;
  }
  for (const SignClaim& c : cross_claims) {
    if (!c.agrees()) return false;
  }
  return !figures.empty();
}

Scorecard build_scorecard(const std::vector<FigureResult>& results,
                          const GoldenFile* golden, bool enable_paper_checks,
                          const DriftTolerances& drift_tol,
                          const PaperTolerances& paper_tol) {
  Scorecard card;
  card.drift_tol = drift_tol;
  card.paper_tol = paper_tol;
  card.paper_checks_enabled = enable_paper_checks;
  if (!results.empty()) {
    card.scale_label = results.front().scale.label;
    card.fingerprint = scale_fingerprint(results.front().scale);
  }

  const GoldenScale* gscale =
      golden != nullptr ? golden->find_scale(card.fingerprint) : nullptr;

  std::map<std::string, double> esteem_energy;  // cross-claim lookup

  for (const FigureResult& r : results) {
    const FigureSpec& spec = *r.spec;
    FigureScore score;
    score.id = spec.id;
    score.title = spec.title;
    score.ran = r.sweep.ok();
    if (!score.ran && !r.sweep.errors.empty()) {
      score.error = r.sweep.errors.front().workload + "/" +
                    r.sweep.errors.front().technique + ": " +
                    r.sweep.errors.front().what;
    }
    if (!score.ran) {
      card.figures.push_back(std::move(score));
      continue;
    }

    score.measured = {r.esteem.energy_saving_pct, r.rpv.energy_saving_pct,
                      r.esteem.weighted_speedup, r.rpv.weighted_speedup,
                      r.esteem.rpki_decrease, r.rpv.rpki_decrease};
    score.mpki_increase = r.esteem.mpki_increase;
    score.active_ratio_pct = r.esteem.active_ratio_pct;
    esteem_energy[spec.id] = r.esteem.energy_saving_pct;

    if (enable_paper_checks) {
      // Directional claims. Weighted speedup is excluded: the paper's 1.09x
      // comes from contention its simulator models and ours compresses
      // (EXPERIMENTS.md note 1), so WS ~ 1.00 here carries no sign signal.
      score.paper_signs.push_back(
          {spec.id + ": ESTEEM saves more energy than RPV", true,
           r.esteem.energy_saving_pct > r.rpv.energy_saving_pct});
      score.paper_signs.push_back(
          {spec.id + ": ESTEEM cuts more refreshes than RPV", true,
           r.esteem.rpki_decrease > r.rpv.rpki_decrease});
      score.paper_signs.push_back(
          {spec.id + ": ESTEEM energy saving is positive", true,
           r.esteem.energy_saving_pct > 0.0});

      if (!spec.paper_averages_are_reference_only) {
        score.paper_bands.push_back({spec.id + ": ESTEEM energy saving vs paper",
                                     r.esteem.energy_saving_pct,
                                     spec.paper.esteem_energy_pct,
                                     paper_tol.energy_pct_rel, true});
        score.paper_bands.push_back({spec.id + ": RPV energy saving vs paper",
                                     r.rpv.energy_saving_pct,
                                     spec.paper.rpv_energy_pct,
                                     paper_tol.energy_pct_rel, true});
      }
    }

    const GoldenFigure* gf =
        gscale != nullptr ? gscale->find_figure(spec.id) : nullptr;
    score.golden_found = gf != nullptr;
    if (gf != nullptr) {
      add_drift_band(score.drift_bands, spec.id + ": ESTEEM energy saving %",
                     r.esteem.energy_saving_pct, gf->esteem_energy_pct,
                     drift_tol.energy_pct_abs, false);
      add_drift_band(score.drift_bands, spec.id + ": RPV energy saving %",
                     r.rpv.energy_saving_pct, gf->rpv_energy_pct,
                     drift_tol.energy_pct_abs, false);
      add_drift_band(score.drift_bands, spec.id + ": ESTEEM weighted speedup",
                     r.esteem.weighted_speedup, gf->esteem_ws, drift_tol.ws_abs,
                     false);
      add_drift_band(score.drift_bands, spec.id + ": RPV weighted speedup",
                     r.rpv.weighted_speedup, gf->rpv_ws, drift_tol.ws_abs, false);
      add_drift_band(score.drift_bands, spec.id + ": ESTEEM RPKI decrease",
                     r.esteem.rpki_decrease, gf->esteem_rpki_dec,
                     drift_tol.rpki_dec_rel, true);
      add_drift_band(score.drift_bands, spec.id + ": RPV RPKI decrease",
                     r.rpv.rpki_decrease, gf->rpv_rpki_dec,
                     drift_tol.rpki_dec_rel, true);
      add_drift_band(score.drift_bands, spec.id + ": ESTEEM MPKI increase",
                     r.esteem.mpki_increase, gf->esteem_mpki_inc,
                     drift_tol.mpki_inc_abs, false);
      add_drift_band(score.drift_bands, spec.id + ": ESTEEM active ratio %",
                     r.esteem.active_ratio_pct, gf->esteem_active_pct,
                     drift_tol.active_pct_abs, false);

      score.workloads_match = r.workloads() == gf->workloads;
      score.spearman_vs_golden =
          score.workloads_match
              ? spearman(r.esteem_energy_savings(), gf->esteem_energy_savings)
              : std::numeric_limits<double>::quiet_NaN();
      if (!score.workloads_match) score.spearman_vs_golden = -1.0;
    }

    card.figures.push_back(std::move(score));
  }

  if (enable_paper_checks) {
    auto have = [&](const char* id) { return esteem_energy.count(id) != 0; };
    if (have("fig3") && have("fig4")) {
      card.cross_claims.push_back(
          {"dual-core saves more than single-core (fig4 > fig3)", true,
           esteem_energy["fig4"] > esteem_energy["fig3"]});
    }
    if (have("fig3") && have("fig5")) {
      card.cross_claims.push_back(
          {"40us retention saves more than 50us (fig5 > fig3)", true,
           esteem_energy["fig5"] > esteem_energy["fig3"]});
    }
    if (have("fig4") && have("fig6")) {
      card.cross_claims.push_back(
          {"40us retention saves more than 50us, dual-core (fig6 > fig4)", true,
           esteem_energy["fig6"] > esteem_energy["fig4"]});
    }
  }

  return card;
}

GoldenScale to_golden(const std::vector<FigureResult>& results) {
  GoldenScale scale;
  if (!results.empty()) {
    scale.fingerprint = scale_fingerprint(results.front().scale);
    scale.label = results.front().scale.label;
  }
  for (const FigureResult& r : results) {
    if (!r.sweep.ok()) continue;  // never bake a partial figure into golden
    GoldenFigure f;
    f.id = r.spec->id;
    f.esteem_energy_pct = r.esteem.energy_saving_pct;
    f.rpv_energy_pct = r.rpv.energy_saving_pct;
    f.esteem_ws = r.esteem.weighted_speedup;
    f.rpv_ws = r.rpv.weighted_speedup;
    f.esteem_rpki_dec = r.esteem.rpki_decrease;
    f.rpv_rpki_dec = r.rpv.rpki_decrease;
    f.esteem_mpki_inc = r.esteem.mpki_increase;
    f.esteem_active_pct = r.esteem.active_ratio_pct;
    f.workloads = r.workloads();
    f.esteem_energy_savings = r.esteem_energy_savings();
    f.rpv_energy_savings = r.rpv_energy_savings();
    scale.figures.push_back(std::move(f));
  }
  return scale;
}

std::string golden_diff_text(const GoldenScale& before, const GoldenScale& after) {
  std::ostringstream os;
  auto diff = [&](const std::string& name, double b, double a) {
    if (b == a) return;
    char buf[160];
    std::snprintf(buf, sizeof buf, "  %-42s %12.4f -> %12.4f  (%+.4f)\n",
                  name.c_str(), b, a, a - b);
    os << buf;
  };
  for (const GoldenFigure& bf : before.figures) {
    const GoldenFigure* af = after.find_figure(bf.id);
    if (af == nullptr) {
      os << "  " << bf.id << ": removed\n";
      continue;
    }
    diff(bf.id + ".esteem_energy_pct", bf.esteem_energy_pct, af->esteem_energy_pct);
    diff(bf.id + ".rpv_energy_pct", bf.rpv_energy_pct, af->rpv_energy_pct);
    diff(bf.id + ".esteem_ws", bf.esteem_ws, af->esteem_ws);
    diff(bf.id + ".rpv_ws", bf.rpv_ws, af->rpv_ws);
    diff(bf.id + ".esteem_rpki_dec", bf.esteem_rpki_dec, af->esteem_rpki_dec);
    diff(bf.id + ".rpv_rpki_dec", bf.rpv_rpki_dec, af->rpv_rpki_dec);
    diff(bf.id + ".esteem_mpki_inc", bf.esteem_mpki_inc, af->esteem_mpki_inc);
    diff(bf.id + ".esteem_active_pct", bf.esteem_active_pct, af->esteem_active_pct);
    if (bf.workloads != af->workloads) os << "  " << bf.id << ": workload set changed\n";
    if (bf.esteem_energy_savings != af->esteem_energy_savings) {
      os << "  " << bf.id << ": per-workload ESTEEM energy series changed\n";
    }
    if (bf.rpv_energy_savings != af->rpv_energy_savings) {
      os << "  " << bf.id << ": per-workload RPV energy series changed\n";
    }
  }
  for (const GoldenFigure& af : after.figures) {
    if (before.find_figure(af.id) == nullptr) os << "  " << af.id << ": added\n";
  }
  return os.str();
}

namespace {

const char* tick(bool ok) { return ok ? "PASS" : "FAIL"; }

void render_figure_checks(std::ostringstream& os, const FigureScore& f,
                          const DriftTolerances& tol) {
  for (const SignClaim& c : f.paper_signs) {
    os << "  [" << tick(c.agrees()) << "] sign  " << c.name << '\n';
  }
  for (const BandCheck& b : f.paper_bands) {
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "  [%s] band  %s: measured %.2f vs paper %.2f (err %.1f%%, tol %.0f%%)\n",
                  tick(b.pass()), b.name.c_str(), b.measured, b.reference,
                  100.0 * b.error(), 100.0 * b.tol);
    os << buf;
  }
  if (!f.golden_found) {
    os << "  [FAIL] drift: no golden entry for this scale fingerprint\n";
    return;
  }
  for (const BandCheck& b : f.drift_bands) {
    char buf[220];
    if (b.relative) {
      std::snprintf(buf, sizeof buf,
                    "  [%s] drift %s: %.4f vs golden %.4f (err %.2f%%, tol %.0f%%)\n",
                    tick(b.pass()), b.name.c_str(), b.measured, b.reference,
                    100.0 * b.error(), 100.0 * b.tol);
    } else {
      std::snprintf(buf, sizeof buf,
                    "  [%s] drift %s: %.4f vs golden %.4f (|err| %.4f, tol %.2f)\n",
                    tick(b.pass()), b.name.c_str(), b.measured, b.reference,
                    b.error(), b.tol);
    }
    os << buf;
  }
  {
    const bool ok = f.workloads_match && spearman_ok(f.spearman_vs_golden,
                                                     tol.min_spearman);
    char buf[200];
    if (!f.workloads_match) {
      std::snprintf(buf, sizeof buf,
                    "  [FAIL] rank  %s: workload set differs from golden\n",
                    f.id.c_str());
    } else {
      std::snprintf(buf, sizeof buf,
                    "  [%s] rank  %s: Spearman vs golden %.3f (min %.2f)\n",
                    tick(ok), f.id.c_str(), f.spearman_vs_golden, tol.min_spearman);
    }
    os << buf;
  }
}

}  // namespace

std::string scorecard_text(const Scorecard& card) {
  std::ostringstream os;
  os << "Paper-fidelity scorecard — scale '" << card.scale_label << "' ("
     << card.fingerprint << ")\n";
  os << "Paper-shape checks: "
     << (card.paper_checks_enabled ? "enabled" : "skipped (non-bench scale)")
     << "\n\n";
  for (const FigureScore& f : card.figures) {
    os << f.title << " — " << (f.pass(card.drift_tol) ? "PASS" : "FAIL") << '\n';
    if (!f.ran) {
      os << "  [FAIL] sweep error: " << f.error << '\n';
      continue;
    }
    render_figure_checks(os, f, card.drift_tol);
    os << '\n';
  }
  if (!card.cross_claims.empty()) {
    os << "Cross-figure claims\n";
    for (const SignClaim& c : card.cross_claims) {
      os << "  [" << tick(c.agrees()) << "] " << c.name << '\n';
    }
    os << '\n';
  }
  os << "Overall: " << (card.pass() ? "PASS" : "FAIL") << '\n';
  return os.str();
}

std::string scorecard_markdown(const Scorecard& card) {
  std::ostringstream os;
  os << "| figure | sweep | paper shape | drift vs golden | rank (Spearman) | verdict |\n";
  os << "|---|---|---|---|---|---|\n";
  for (const FigureScore& f : card.figures) {
    std::size_t sign_fail = 0, band_fail = 0, drift_fail = 0;
    for (const SignClaim& c : f.paper_signs) sign_fail += c.agrees() ? 0 : 1;
    for (const BandCheck& b : f.paper_bands) band_fail += b.pass() ? 0 : 1;
    for (const BandCheck& b : f.drift_bands) drift_fail += b.pass() ? 0 : 1;

    os << "| " << f.id << " | " << (f.ran ? "ok" : "error") << " | ";
    if (!card.paper_checks_enabled) {
      os << "skipped";
    } else if (sign_fail + band_fail == 0) {
      os << "ok (" << f.paper_signs.size() << " signs, " << f.paper_bands.size()
         << " bands)";
    } else {
      os << sign_fail + band_fail << " failed";
    }
    os << " | ";
    if (!f.golden_found) {
      os << "no golden";
    } else if (drift_fail == 0) {
      os << "ok (" << f.drift_bands.size() << " bands)";
    } else {
      os << drift_fail << " failed";
    }
    os << " | ";
    if (!f.golden_found) {
      os << "—";
    } else if (!f.workloads_match) {
      os << "workloads differ";
    } else if (std::isnan(f.spearman_vs_golden)) {
      os << "n/a";
    } else {
      os << f2(f.spearman_vs_golden);
    }
    os << " | " << (f.pass(card.drift_tol) ? "**PASS**" : "**FAIL**") << " |\n";
  }
  if (!card.cross_claims.empty()) {
    os << "\nCross-figure claims:\n\n";
    for (const SignClaim& c : card.cross_claims) {
      os << "- " << (c.agrees() ? "✅" : "❌") << " " << c.name << "\n";
    }
  }
  os << "\nOverall: " << (card.pass() ? "**PASS**" : "**FAIL**") << "\n";
  return os.str();
}

}  // namespace esteem::validation
