// Sweep helpers shared by the tools: SweepSpec construction (esteem_cli and
// esteem_workerd), comma-list splitting, and the --journal directory setup
// (esteem_cli and esteem_validate).
//
// The multi-process service promises byte-identical output to a
// single-process `esteem_cli --sweep` of the same flags, which only holds if
// both tools derive the *same* SweepSpec — same workload parsing, same
// paper-default config policy (core count, interval scaling, hysteresis; see
// DESIGN.md §5). This header is that single definition.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "common/config.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "sim/technique.hpp"
#include "trace/workloads.hpp"

namespace esteem::tools {

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

/// Paper defaults for the core count of the sweep's first workload, with the
/// 10M-cycle interval scaled to the shortened run (the same policy the bench
/// harness uses; a mismatched workload later fails as a recorded sweep
/// error).
inline SystemConfig default_sweep_config(const trace::Workload& first, instr_t instr) {
  SystemConfig cfg = first.benchmarks.size() >= 2 ? SystemConfig::dual_core()
                                                  : SystemConfig::single_core();
  cfg.ncores =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, first.benchmarks.size()));
  apply_scaled_interval(cfg, instr);
  return cfg;
}

/// CLI args -> SweepSpec (workloads from --sweep, techniques from
/// --techniques or the spec default). Throws std::invalid_argument on an
/// unknown technique name; leaves workloads empty when `sweep_arg` is.
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
    }
  }
  return spec;
}

/// --journal DIR: makes DIR the run-memo directory (overriding
/// ESTEEM_MEMO_DIR), so every finished run is published there durably and
/// rerunning the same command restores it (DESIGN.md §11). DIR is created
/// up front; false with `error` set when it cannot be (e.g. DIR names a
/// regular file).
inline bool use_journal_dir(const std::string& dir, std::string& error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (!ec && !std::filesystem::is_directory(dir, ec)) {
    ec = std::make_error_code(std::errc::not_a_directory);
  }
  if (ec) {
    error = "cannot use journal directory " + dir + ": " + ec.message();
    return false;
  }
  sim::RunCache::instance().set_disk_dir(dir);
  return true;
}

}  // namespace esteem::tools
