// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures.
//
// The scale policy (how the paper's 400M-instruction, 10M-cycle-interval
// runs shrink to bench size) lives in src/validation/scale.hpp, shared with
// tools/esteem_validate so the fidelity gate scores exactly the runs the
// benches print. These wrappers keep the historical instruction-count-based
// bench API on top of it.
#pragma once

#include <cstdio>
#include <string>

#include "common/config.hpp"
#include "common/env.hpp"
#include "common/types.hpp"
#include "validation/scale.hpp"

namespace esteem::bench {

/// Per-core instruction budget for bench runs (ESTEEM_INSTR).
inline instr_t instr_per_core() { return validation::bench_scale().instr_per_core; }

/// Warm-up instructions per core before measurement (ESTEEM_WARMUP;
/// default: a fifth of the measured budget). The paper fast-forwards 10B
/// instructions before its 400M-instruction measurement.
inline instr_t warmup_instr_per_core() {
  return validation::bench_scale().warmup_per_core;
}

/// Worker threads for sweeps (ESTEEM_THREADS; 0 = hardware concurrency).
inline unsigned threads() { return validation::bench_scale().threads; }

inline std::uint64_t seed() { return validation::bench_scale().seed; }

/// Applies the scaled interval and churn damping for `instr` instructions
/// per core. `interval_factor` expresses Table 3's 5M/15M rows as 0.5x/1.5x
/// of the 10M-cycle default; ESTEEM_INTERVAL_FACTOR additionally lengthens
/// the scaled interval (see common/config.hpp).
inline void apply_bench_interval(SystemConfig& cfg, instr_t instr,
                                 double interval_factor = 1.0) {
  apply_scaled_interval(cfg, instr, validation::bench_scale().interval_env_factor,
                        interval_factor);
}

/// Paper single-core configuration with the bench-scaled interval.
inline SystemConfig scaled_single(instr_t instr, double interval_factor = 1.0) {
  validation::ScaleSpec scale = validation::bench_scale();
  scale.instr_per_core = instr;
  return validation::scaled_single(scale, interval_factor);
}

/// Paper dual-core configuration with the bench-scaled interval.
inline SystemConfig scaled_dual(instr_t instr, double interval_factor = 1.0) {
  validation::ScaleSpec scale = validation::bench_scale();
  scale.instr_per_core = instr;
  return validation::scaled_dual(scale, interval_factor);
}

inline void print_scale_banner(const char* what, const SystemConfig& cfg,
                               instr_t instr) {
  std::fputs(validation::scale_banner(what, cfg, instr, threads()).c_str(),
             stdout);
}

}  // namespace esteem::bench
