// Shared argument helpers for the tools: the retired-variable refusal,
// strict numeric flag values and comma-list splitting (esteem_cli,
// esteem_validate, esteem_bench, esteem_chaos), esteem_cli's SweepSpec
// construction (workload parsing and the paper-default config policy: core
// count, interval scaling, hysteresis; see DESIGN.md §5) and --journal
// directory setup.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "sim/technique.hpp"
#include "trace/workloads.hpp"

namespace esteem::tools {

/// The tools read no environment. Each variable an earlier version read is
/// refused with the flag that replaces it, so a user who still exports one
/// gets exit 2 instead of a run that silently ignores it. Every tool calls
/// this before any other work; true when at least one is set non-empty.
inline bool refuse_retired_variables(const char* tool) {
  static const char* const kRetired[][2] = {
      {"ESTEEM_INSTR", "--instr N"},
      {"ESTEEM_WARMUP", "--warmup N"},
      {"ESTEEM_SEED", "--seed N"},
      {"ESTEEM_THREADS", "--jobs N"},
      {"ESTEEM_INTERVAL_FACTOR", "esteem_validate --scale (each scale pins its interval factor)"},
      {"ESTEEM_TABLE3_INSTR", "--instr N (Table 3 runs at half of it)"},
      {"ESTEEM_TABLE3_STRIDE", "a smaller --instr N (Table 3 runs every workload)"},
      {"ESTEEM_TABLE3_SECTION", "a smaller --instr N (Table 3 runs both sections)"},
      {"ESTEEM_MEMO_DIR", "--journal DIR (esteem_cli --sweep, esteem_validate)"},
      {"ESTEEM_CHAOS_SCHEDULE", "esteem_chaos --replay SCHEDULE"},
      {"ESTEEM_CHAOS_RANDOM_SEED", "esteem_chaos --random-replay SEED"},
      {"ESTEEM_CHAOS_RATE", "esteem_chaos --rate PCT"},
      {"ESTEEM_CHAOS_MAX", "esteem_chaos --random-replay SEED (6 faults at most per plan)"},
  };
  bool refused = false;
  for (const auto& [name, flag] : kRetired) {
    const char* v = std::getenv(name);
    if (v == nullptr || *v == '\0') continue;
    std::fprintf(stderr, "%s: %s is no longer read; use %s and unset %s\n", tool, name,
                 flag, name);
    refused = true;
  }
  return refused;
}

/// A numeric flag's value: the whole token must be a decimal count that
/// fits in T (json::parse_u64 — no sign, space, exponent or suffix, so
/// "1e6", "abc" and "4x2" are all rejected). false otherwise; every tool
/// reports that as a usage error (exit 2).
template <class T>
bool parse_count(const std::string& token, T& out) {
  std::uint64_t v = 0;
  if (!json::parse_u64(token, v) ||
      v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

inline std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Splits per-core benchmark names joined by '+' into one workload.
inline trace::Workload parse_sweep_workload(const std::string& item) {
  trace::Workload wl;
  wl.name = item;
  std::istringstream is(item);
  std::string bench;
  while (std::getline(is, bench, '+')) {
    if (!bench.empty()) wl.benchmarks.push_back(bench);
  }
  return wl;
}

/// esteem_cli's configuration without --config: paper defaults for the core
/// count of `first` (the single run's workload, or the sweep's first), with
/// the 10M-cycle interval to be scaled to the run (kPaperScaledInterval, the
/// same policy the validation scales use; resolve_interval() before running).
/// A mismatched sweep workload later fails as a recorded sweep error.
inline SystemConfig paper_default_config(const trace::Workload& first) {
  SystemConfig cfg = first.benchmarks.size() >= 2 ? SystemConfig::dual_core()
                                                  : SystemConfig::single_core();
  cfg.ncores =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, first.benchmarks.size()));
  apply_paper_scaled_interval(cfg);
  return cfg;
}

/// CLI args -> SweepSpec (workloads from --sweep, techniques from
/// --techniques or the spec default). Throws std::invalid_argument on an
/// unknown technique name, a listed baseline or a technique listed twice;
/// leaves workloads empty when `sweep_arg` is.
inline sim::SweepSpec build_sweep_spec(const SystemConfig& cfg, const std::string& sweep_arg,
                                       const std::string& techniques_arg, instr_t instr,
                                       instr_t warmup, std::uint64_t seed, unsigned jobs) {
  sim::SweepSpec spec;
  spec.config = cfg;
  spec.seed = seed;
  spec.instr_per_core = instr;
  spec.warmup_instr_per_core = warmup;
  spec.threads = jobs;
  for (const std::string& item : split_csv(sweep_arg)) {
    spec.workloads.push_back(parse_sweep_workload(item));
  }
  if (!techniques_arg.empty()) {
    spec.techniques.clear();
    for (const std::string& name : split_csv(techniques_arg)) {
      spec.techniques.push_back(sim::parse_technique(name));
      if (spec.techniques.back() == sim::Technique::BaselinePeriodicAll) {
        throw std::invalid_argument("the baseline is implicit; do not list it in --techniques");
      }
      if (std::count(spec.techniques.begin(), spec.techniques.end(),
                     spec.techniques.back()) > 1) {
        throw std::invalid_argument("technique " + name + " is listed twice in --techniques");
      }
    }
  }
  return spec;
}

/// Creates output directory `dir` (and its parents) up front; false with
/// `error` naming the `what` directory when it cannot be (e.g. `dir` names a
/// regular file).
inline bool make_output_dir(const std::string& dir, const char* what, std::string& error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec && !std::filesystem::is_directory(dir, ec)) {
    ec = std::make_error_code(std::errc::not_a_directory);
  }
  if (ec) {
    error = std::string("cannot use ") + what + " directory " + dir + ": " + ec.message();
    return false;
  }
  return true;
}

/// --journal DIR: makes DIR the run-memo directory (the only way to name
/// one), so every finished run is published there durably and rerunning the
/// same command restores it (DESIGN.md §11). DIR is created
/// up front; false with `error` set when it cannot be.
inline bool use_journal_dir(const std::string& dir, std::string& error) {
  if (!make_output_dir(dir, "journal", error)) return false;
  sim::RunCache::instance().set_disk_dir(dir);
  return true;
}

}  // namespace esteem::tools
