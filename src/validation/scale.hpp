// Run-scale policy of the paper-fidelity validator and the printed reports
// (`esteem_validate --scale smoke|bench|paper`).
//
// The paper fast-forwards 10B instructions and measures 400M per benchmark
// with 10M-cycle reconfiguration intervals. Scaled runs shrink the measured
// instruction count and shrink the interval proportionally (times an
// interval factor compensating for the synthetic workloads' lower IPC — see
// DESIGN.md §5), so a run still spans the same ~40-80 reconfiguration
// intervals. A ScaleSpec pins every scale parameter; its fingerprint keys
// golden-file entries so measured results are only ever compared against a
// baseline recorded at the same scale.
#pragma once

#include <string>

#include "common/config.hpp"
#include "common/types.hpp"

namespace esteem::validation {

/// Everything that determines the inputs of a scaled figure run (except the
/// system configuration itself, which each figure derives from this).
struct ScaleSpec {
  std::string label = "bench";     ///< "bench" | "smoke" | "custom".
  instr_t instr_per_core = 8'000'000;
  instr_t warmup_per_core = 1'600'000;
  std::uint64_t seed = 42;
  /// Lengthens the proportionally-scaled interval for the synthetic
  /// workloads' lower IPC (see DESIGN.md §5).
  double interval_env_factor = kIntervalEnvFactor;
  /// Sweep worker threads (0 = hardware concurrency). Not part of the
  /// fingerprint: serial and threaded sweeps are bit-identical.
  unsigned threads = 0;
  /// SMARTS-style statistical sampling (see docs/SAMPLING.md). Disabled for
  /// the exhaustive tiers; the "paper" tier enables it so 400M-instruction
  /// runs complete in minutes. Part of the fingerprint when enabled.
  SamplingConfig sampling;
};

/// Pinned bench scale (8M instructions per core, a fifth of that as warm-up,
/// seed 42): the scale RESULTS.md is rendered at.
ScaleSpec bench_scale();

/// Pinned reduced scale for fast validation smokes (~300k instructions per
/// core).
ScaleSpec smoke_scale();

/// The paper's full measurement scale (400M instructions per core, 10M-cycle
/// intervals) made tractable by SMARTS sampling: 100 detailed 40k-instruction
/// windows per 4M-instruction period, functionally warmed in between.
ScaleSpec paper_scale();

/// Canonical identity of a scale, e.g.
/// "v1;instr=300000;warmup=60000;seed=42;ifactor=4;hyst=2;shrink=2".
/// Golden entries are keyed by this string.
std::string scale_fingerprint(const ScaleSpec& scale);

/// Paper single-core / dual-core configurations with the scaled interval and
/// the churn damping applied.
SystemConfig scaled_single(const ScaleSpec& scale, double interval_factor = 1.0);
SystemConfig scaled_dual(const ScaleSpec& scale, double interval_factor = 1.0);

/// The scale banner every printed report that simulates starts with
/// (including the trailing blank line).
std::string scale_banner(const std::string& what, const SystemConfig& cfg,
                         instr_t instr, unsigned threads);

}  // namespace esteem::validation
