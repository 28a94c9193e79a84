#include "validation/scorecard.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <string_view>

#include "common/table.hpp"

namespace esteem::validation {

namespace {

std::string f2(double v) { return fmt(v, 2); }

/// Least Spearman correlation of the per-workload ESTEEM energy ranks with
/// the golden ones.
constexpr double kMinSpearman = 0.95;

/// True when the Spearman requirement is satisfied. NaN means the
/// correlation was not computable (fewer than two workloads, or a constant
/// series); with matching workload sets that is a degenerate-but-consistent
/// state, not drift, so it passes.
bool spearman_ok(double rho) { return std::isnan(rho) || rho >= kMinSpearman; }

/// A paper band's name: the label without its " %" unit, then " vs paper".
std::string vs_paper(std::string_view label) {
  if (label.ends_with(" %")) label.remove_suffix(2);
  return std::string(label) + " vs paper";
}

}  // namespace

bool FigureScore::pass() const {
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
  return spearman_ok(spearman_vs_golden);
}

bool Scorecard::pass() const {
  for (const FigureScore& f : figures) {
    if (!f.pass()) return false;
  }
  for (const SignClaim& c : cross_claims) {
    if (!c.agrees()) return false;
  }
  return !figures.empty();
}

Scorecard build_scorecard(const std::vector<FigureResult>& results,
                          const GoldenFile* golden) {
  Scorecard card;
  if (!results.empty()) {
    const ScaleSpec& scale = results.front().scale;
    card.scale_label = scale.label;
    card.fingerprint = scale_fingerprint(scale);
    card.paper_checks_enabled = scale.label == "bench" || scale.label == "paper";
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

    esteem_energy[spec.id] = r.esteem.energy_saving_pct;

    if (card.paper_checks_enabled) {
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

      for (const FigureMetric& m : figure_metrics()) {
        if (m.paper_band == 0.0 || spec.paper_averages_are_reference_only) continue;
        score.paper_bands.push_back({spec.id + ": " + vs_paper(m.label),
                                     m.read(r.esteem, r.rpv), spec.paper.*m.paper,
                                     m.paper_band, true});
      }
    }

    const GoldenFigure* gf =
        gscale != nullptr ? gscale->find_figure(spec.id) : nullptr;
    score.golden_found = gf != nullptr;
    if (gf != nullptr) {
      for (const FigureMetric& m : figure_metrics()) {
        score.drift_bands.push_back({spec.id + ": " + m.label, m.read(r.esteem, r.rpv),
                                     gf->*m.golden, m.drift_tol, m.drift_relative});
      }
      score.workloads_match = r.workloads() == gf->workloads;
      score.spearman_vs_golden =
          score.workloads_match
              ? spearman(r.esteem_energy_savings(), gf->esteem_energy_savings)
              : -1.0;
    }

    card.figures.push_back(std::move(score));
  }

  if (card.paper_checks_enabled) {
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
    for (const FigureMetric& m : figure_metrics()) f.*m.golden = m.read(r.esteem, r.rpv);
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
    for (const FigureMetric& m : figure_metrics()) {
      diff(bf.id + "." + m.key, bf.*m.golden, af->*m.golden);
    }
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

void render_figure_checks(std::ostringstream& os, const FigureScore& f) {
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
    const bool ok = f.workloads_match && spearman_ok(f.spearman_vs_golden);
    char buf[200];
    if (!f.workloads_match) {
      std::snprintf(buf, sizeof buf,
                    "  [FAIL] rank  %s: workload set differs from golden\n",
                    f.id.c_str());
    } else {
      std::snprintf(buf, sizeof buf,
                    "  [%s] rank  %s: Spearman vs golden %.3f (min %.2f)\n",
                    tick(ok), f.id.c_str(), f.spearman_vs_golden, kMinSpearman);
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
    os << f.title << " — " << (f.pass() ? "PASS" : "FAIL") << '\n';
    if (!f.ran) {
      os << "  [FAIL] sweep error: " << f.error << '\n';
      continue;
    }
    render_figure_checks(os, f);
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
    os << " | " << (f.pass() ? "**PASS**" : "**FAIL**") << " |\n";
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
