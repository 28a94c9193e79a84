// esteem_validate: the paper-fidelity gate.
//
//   esteem_validate --check                 score the figure matrix against
//                                           validation/golden.json (exit 1
//                                           on drift or shape failure)
//   esteem_validate --update-golden         re-record the golden entry for
//                                           the current scale (prints the
//                                           diff it is about to commit)
//   esteem_validate --results               render the results book
//                                           (RESULTS.md) to stdout
//   esteem_validate --print ID              print one of the paper's tables
//                                           or figures (table1 table2 eq1
//                                           fig2-fig6 table3 ablation
//                                           motivation faults); exit 3 when a
//                                           sweep row failed
//   esteem_validate --list                  list the report ids
//
// Options:
//   --golden PATH       golden file (default validation/golden.json)
//   --scale smoke|bench|paper
//                       pinned 300k-instr smoke scale (default), the 8M-instr
//                       bench scale RESULTS.md is rendered at, or the
//                       paper's 400M-instr scale made tractable by SMARTS
//                       sampling (docs/SAMPLING.md)
//   --instr N --warmup N --seed N   override the chosen scale; a budget
//                       other than the scale's own is labelled 'custom'
//   --jobs N            sweep worker threads (0 = hardware concurrency)
//   --figures a,b,...   run a subset (default fig3,fig4,fig5,fig6)
//   --perturb-refresh-energy X      scale eDRAM refresh energy by X before
//                       running — a deliberate-drift hook for testing that
//                       the gate actually fails when the model moves
//   --journal DIR       crash safety: use DIR as the run-memo directory,
//                       so every finished run is published there; rerunning
//                       with the same --journal DIR restores those runs
//                       instead of simulating them again
//
// --print takes the scale flags and --journal only: --figures, --golden and
// --perturb-refresh-energy have no effect on a printed report, so they are
// refused (exit 2) there rather than silently ignored.
//
// SIGINT/SIGTERM drain the figure matrix gracefully: finished runs stay in
// the memo directory and the process exits with code 5 instead of scoring
// (or printing) partial data.
//
// The tool reads no environment: the retired ESTEEM_* variables are refused
// (exit 2) rather than silently ignored.
//
// Paper-shape checks (signs, §7.2 bands) are gated at the bench and paper
// scales, and skipped at a 'custom' budget: at tiny instruction budgets the reconfiguration machinery barely
// engages and the paper's ordering inverts (see EXPERIMENTS.md).
// Drift-vs-golden is gated at every scale.
//
// Exit codes: 0 pass, 1 check failed, 2 usage error, 3 --print sweep
// errors, 4 runtime error, 5 interrupted.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "resilience/shutdown.hpp"
#include "sim/run_cache.hpp"
#include "sweep_cli_common.hpp"
#include "validation/figures.hpp"
#include "validation/golden.hpp"
#include "validation/reports.hpp"
#include "validation/results_book.hpp"
#include "validation/scorecard.hpp"

namespace {

using namespace esteem;
using namespace esteem::validation;

enum class Mode { Check, UpdateGolden, Results, Print, List };

struct Options {
  Mode mode = Mode::Check;
  std::string golden_path = "validation/golden.json";
  std::string scale_name = "smoke";
  std::vector<std::string> figure_ids{"fig3", "fig4", "fig5", "fig6"};
  bool figures_given = false;
  bool golden_given = false;
  std::string report_id;  // --print
  double perturb_refresh = 1.0;
  bool perturb_given = false;
  std::string journal_dir;
  // Scale overrides (<0 = keep the scale's own value).
  long long instr = -1;
  long long warmup = -1;
  long long seed = -1;
  long long jobs = -1;
};

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: esteem_validate [--check|--update-golden|--results|--print ID|--list]\n"
               "                       [--golden PATH] [--scale smoke|bench|paper]\n"
               "                       [--instr N] [--warmup N] [--seed N] [--jobs N]\n"
               "                       [--figures fig3,fig4,...]\n"
               "                       [--perturb-refresh-energy X]\n"
               "                       [--journal DIR]\n");
}

bool parse_args(int argc, char** argv, Options& opt) {
  auto need_value = [&](int i) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s needs a value\n", argv[i]);
      return false;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--check") {
      opt.mode = Mode::Check;
    } else if (a == "--update-golden") {
      opt.mode = Mode::UpdateGolden;
    } else if (a == "--results") {
      opt.mode = Mode::Results;
    } else if (a == "--print") {
      if (!need_value(i)) return false;
      opt.mode = Mode::Print;
      opt.report_id = argv[++i];
      if (find_report(opt.report_id) == nullptr) {
        std::fprintf(stderr, "unknown report id '%s' (see --list)\n",
                     opt.report_id.c_str());
        return false;
      }
    } else if (a == "--list") {
      opt.mode = Mode::List;
    } else if (a == "--golden") {
      if (!need_value(i)) return false;
      opt.golden_path = argv[++i];
      opt.golden_given = true;
    } else if (a == "--scale") {
      if (!need_value(i)) return false;
      opt.scale_name = argv[++i];
      if (opt.scale_name != "smoke" && opt.scale_name != "bench" &&
          opt.scale_name != "paper") {
        std::fprintf(stderr, "--scale must be 'smoke', 'bench' or 'paper'\n");
        return false;
      }
    } else if (a == "--figures") {
      if (!need_value(i)) return false;
      opt.figure_ids = tools::split_csv(argv[++i]);
      opt.figures_given = true;
      for (const std::string& id : opt.figure_ids) {
        if (find_figure(id) == nullptr) {
          std::fprintf(stderr, "unknown figure id '%s'\n", id.c_str());
          return false;
        }
      }
    } else if (a == "--journal") {
      if (!need_value(i)) return false;
      opt.journal_dir = argv[++i];
    } else if (a == "--perturb-refresh-energy") {
      if (!need_value(i)) return false;
      const char* v = argv[++i];
      char* end = nullptr;
      opt.perturb_refresh = std::strtod(v, &end);
      opt.perturb_given = true;
      if (end == v || *end != '\0' || !std::isfinite(opt.perturb_refresh) ||
          opt.perturb_refresh <= 0.0) {
        std::fprintf(stderr, "--perturb-refresh-energy must be a number > 0, not '%s'\n", v);
        return false;
      }
    } else if (a == "--instr" || a == "--warmup" || a == "--seed" || a == "--jobs") {
      if (!need_value(i)) return false;
      long long v = 0;
      if (!tools::parse_count(argv[++i], v)) {
        std::fprintf(stderr, "bad number '%s' for %s\n", argv[i], a.c_str());
        return false;
      }
      if (v == 0 && a != "--jobs" && a != "--seed") {
        std::fprintf(stderr, "%s must be positive\n", a.c_str());
        return false;
      }
      if (a == "--instr") opt.instr = v;
      if (a == "--warmup") opt.warmup = v;
      if (a == "--seed") opt.seed = v;
      if (a == "--jobs") opt.jobs = v;
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      return false;
    }
  }
  if (opt.mode == Mode::Print) {
    const std::pair<bool, const char*> ignored[] = {
        {opt.figures_given, "--figures"},
        {opt.golden_given, "--golden"},
        {opt.perturb_given, "--perturb-refresh-energy"}};
    for (const auto& [given, flag] : ignored) {
      if (!given) continue;
      std::fprintf(stderr, "%s has no effect on --print; drop it\n", flag);
      return false;
    }
  }
  return true;
}

ScaleSpec resolve_scale(const Options& opt) {
  const ScaleSpec named = opt.scale_name == "bench"   ? bench_scale()
                          : opt.scale_name == "paper" ? paper_scale()
                                                      : smoke_scale();
  ScaleSpec s = named;
  if (opt.instr >= 0) {
    s.instr_per_core = static_cast<instr_t>(opt.instr);
    if (opt.warmup < 0) s.warmup_per_core = s.instr_per_core / 5;
  }
  if (opt.warmup >= 0) s.warmup_per_core = static_cast<instr_t>(opt.warmup);
  // A budget the named scale does not pin is no longer that scale: its
  // paper bands would be judged at the wrong budget (DESIGN.md §9).
  if (s.instr_per_core != named.instr_per_core ||
      s.warmup_per_core != named.warmup_per_core) {
    s.label = "custom";
  }
  if (opt.seed >= 0) s.seed = static_cast<std::uint64_t>(opt.seed);
  if (opt.jobs >= 0) s.threads = static_cast<unsigned>(opt.jobs);
  return s;
}

/// With --journal, reports how many runs came back from the memo directory
/// since `disk_hits_before` (every mode prints it, so a memoized run is
/// never mistaken for a fresh one).
void report_resume(const Options& opt, std::uint64_t disk_hits_before) {
  if (opt.journal_dir.empty()) return;
  std::fprintf(stderr, "resume: %llu run(s) restored from %s\n",
               static_cast<unsigned long long>(
                   sim::RunCache::instance().stats().disk_hits - disk_hits_before),
               opt.journal_dir.c_str());
}

/// Runs the figure matrix; `interrupted` reports whether a shutdown request
/// cut it short (remaining figures are skipped entirely).
std::vector<FigureResult> run_matrix(const Options& opt, const ScaleSpec& scale,
                                     bool& interrupted) {
  std::function<void(SystemConfig&)> mutate;
  if (opt.perturb_refresh != 1.0) {
    const double k = opt.perturb_refresh;
    mutate = [k](SystemConfig& cfg) { cfg.energy.refresh_scale = k; };
  }
  const std::uint64_t disk_hits_before = sim::RunCache::instance().stats().disk_hits;
  std::vector<FigureResult> results;
  interrupted = false;
  for (const std::string& id : opt.figure_ids) {
    if (resilience::shutdown_requested()) {
      interrupted = true;
      break;
    }
    const FigureSpec* spec = find_figure(id);
    std::fprintf(stderr, "running %s at scale '%s' (%llu instr/core)...\n",
                 id.c_str(), scale.label.c_str(),
                 static_cast<unsigned long long>(scale.instr_per_core));
    results.push_back(run_figure(*spec, scale, mutate));
    interrupted |= results.back().sweep.interrupted;
  }
  report_resume(opt, disk_hits_before);
  return results;
}

int do_check(const Options& opt, const ScaleSpec& scale) {
  // Without a golden the scorecard cannot pass, so a missing or unreadable
  // one is a usage error found before the matrix runs, not after.
  GoldenFile golden;
  try {
    golden = load_golden(opt.golden_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esteem_validate: %s\n", e.what());
    return 2;
  }

  bool interrupted = false;
  const std::vector<FigureResult> results = run_matrix(opt, scale, interrupted);
  if (interrupted) {
    std::fprintf(stderr, "validation interrupted; not scoring partial data "
                         "(rerun with the same --journal DIR to continue)\n");
    return resilience::kExitInterrupted;
  }
  const Scorecard card = build_scorecard(results, &golden);
  std::fputs(scorecard_text(card).c_str(), stdout);
  if (!card.pass()) {
    // Echo every override, so the suggested command records the scale and
    // figures that were just checked.
    std::string overrides;
    if (opt.figures_given) {
      overrides += " --figures";
      for (std::size_t i = 0; i < opt.figure_ids.size(); ++i) {
        overrides += (i == 0 ? " " : ",") + opt.figure_ids[i];
      }
    }
    const std::pair<const char*, long long> counts[] = {
        {"--instr", opt.instr}, {"--warmup", opt.warmup},
        {"--seed", opt.seed}, {"--jobs", opt.jobs}};
    for (const auto& [flag, value] : counts) {
      if (value >= 0) overrides += std::string(" ") + flag + " " + std::to_string(value);
    }
    std::fprintf(stdout,
                 "\nDrift detected (or no golden entry for this scale). If the change is "
                 "intentional, re-record with:\n  esteem_validate "
                 "--update-golden --scale %s%s --golden %s\n",
                 opt.scale_name.c_str(), overrides.c_str(), opt.golden_path.c_str());
    return 1;
  }
  return 0;
}

int do_update_golden(const Options& opt, const ScaleSpec& scale) {
  if (opt.perturb_refresh != 1.0) {
    std::fprintf(stderr, "refusing to record a golden from a perturbed run\n");
    return 2;
  }
  bool interrupted = false;
  const std::vector<FigureResult> results = run_matrix(opt, scale, interrupted);
  if (interrupted) {
    std::fprintf(stderr, "validation interrupted; not recording a golden\n");
    return resilience::kExitInterrupted;
  }
  for (const FigureResult& r : results) {
    if (!r.sweep.ok()) {
      std::fprintf(stderr, "%s had sweep errors; not recording a golden\n",
                   r.spec->id.c_str());
      return 4;
    }
  }

  GoldenFile golden;
  try {
    golden = load_golden(opt.golden_path);
  } catch (const std::exception&) {
    std::fprintf(stderr, "starting a fresh golden file at %s\n",
                 opt.golden_path.c_str());
  }
  // record() merges figure by figure, so the diff compares the old entry
  // with the merged one: figures that were not rerun are kept, not removed.
  GoldenScale fresh = to_golden(results);
  const std::string fingerprint = fresh.fingerprint;
  const GoldenScale* old = golden.find_scale(fingerprint);
  const std::optional<GoldenScale> before =
      old != nullptr ? std::optional<GoldenScale>(*old) : std::nullopt;
  golden.record(std::move(fresh));
  const GoldenScale& after = *golden.find_scale(fingerprint);
  if (before) {
    const std::string diff = golden_diff_text(*before, after);
    if (diff.empty()) {
      std::printf("golden entry for %s unchanged\n", fingerprint.c_str());
    } else {
      std::printf("updating golden entry for %s:\n%s", fingerprint.c_str(),
                  diff.c_str());
    }
  } else {
    std::printf("recording new golden entry for %s (%zu figures)\n",
                fingerprint.c_str(), after.figures.size());
  }
  save_golden(opt.golden_path, golden);
  std::printf("wrote %s\n", opt.golden_path.c_str());
  return 0;
}

int do_results(const Options& opt, const ScaleSpec& scale) {
  GoldenFile golden;
  bool have_golden = false;
  try {
    golden = load_golden(opt.golden_path);
    have_golden = true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: %s\n", e.what());
  }
  bool interrupted = false;
  const std::vector<FigureResult> results = run_matrix(opt, scale, interrupted);
  if (interrupted) {
    std::fprintf(stderr, "validation interrupted; not rendering partial "
                         "results\n");
    return resilience::kExitInterrupted;
  }
  const Scorecard card = build_scorecard(results, have_golden ? &golden : nullptr);
  const ExactChecks checks = run_exact_checks(scale);
  std::fputs(results_book_markdown(results, card, checks).c_str(), stdout);
  return 0;
}

int do_print(const Options& opt, const ScaleSpec& scale) {
  const std::uint64_t disk_hits_before = sim::RunCache::instance().stats().disk_hits;
  ReportOutput out;
  try {
    out = find_report(opt.report_id)->run(scale);
  } catch (const std::exception&) {
    // An interrupted sweep may leave nothing to summarize; that is exit 5.
    if (!resilience::shutdown_requested()) throw;
  }
  report_resume(opt, disk_hits_before);
  if (resilience::shutdown_requested()) {
    std::fprintf(stderr, "report interrupted; not printing partial output\n");
    return resilience::kExitInterrupted;
  }
  std::fputs(out.text.c_str(), stdout);
  return out.ok ? 0 : 3;
}

int do_list() {
  for (const Report& r : reports()) {
    std::printf("%-10s %s\n", r.id.c_str(), r.summary.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (tools::refuse_retired_variables("esteem_validate")) return 2;
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage(stderr);
    return 2;
  }
  try {
    if (opt.mode == Mode::List) return do_list();
    if (!opt.journal_dir.empty()) {
      std::string error;
      if (!tools::use_journal_dir(opt.journal_dir, error)) {
        std::fprintf(stderr, "esteem_validate: %s\n", error.c_str());
        return 2;
      }
    }
    const ScaleSpec scale = resolve_scale(opt);
    esteem::resilience::install_signal_handlers();
    switch (opt.mode) {
      case Mode::Check: return do_check(opt, scale);
      case Mode::UpdateGolden: return do_update_golden(opt, scale);
      case Mode::Results: return do_results(opt, scale);
      case Mode::Print: return do_print(opt, scale);
      case Mode::List: break;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "esteem_validate: %s\n", e.what());
    return 4;
  }
  return 0;
}
