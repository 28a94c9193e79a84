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
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/config.hpp"
#include "common/env.hpp"
#include "common/types.hpp"
#include "validation/scale.hpp"

namespace esteem::bench {

/// Returns read(). A malformed ESTEEM_* value makes it throw
/// std::invalid_argument, which is a usage error here as in every tool:
/// the message goes to stderr and the process exits 2.
template <class Read>
auto read_setting(Read read) -> decltype(read()) {
  try {
    return read();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

/// The bench scale (ESTEEM_INSTR, ESTEEM_WARMUP, ESTEEM_SEED,
/// ESTEEM_INTERVAL_FACTOR, ESTEEM_THREADS).
inline validation::ScaleSpec scale() { return read_setting(validation::bench_scale); }

/// Per-core instruction budget for bench runs (ESTEEM_INSTR).
inline instr_t instr_per_core() { return scale().instr_per_core; }

/// Warm-up instructions per core before measurement (ESTEEM_WARMUP;
/// default: a fifth of the measured budget). The paper fast-forwards 10B
/// instructions before its 400M-instruction measurement.
inline instr_t warmup_instr_per_core() {
  return scale().warmup_per_core;
}

/// Worker threads for sweeps (ESTEEM_THREADS; 0 = hardware concurrency).
inline unsigned threads() { return scale().threads; }

inline std::uint64_t seed() { return scale().seed; }

/// Applies the scaled interval and churn damping for `instr` instructions
/// per core. `interval_factor` expresses Table 3's 5M/15M rows as 0.5x/1.5x
/// of the 10M-cycle default; ESTEEM_INTERVAL_FACTOR additionally lengthens
/// the scaled interval (see common/config.hpp).
inline void apply_bench_interval(SystemConfig& cfg, instr_t instr,
                                 double interval_factor = 1.0) {
  apply_scaled_interval(cfg, instr, scale().interval_env_factor,
                        interval_factor);
}

/// Paper single-core configuration with the bench-scaled interval.
inline SystemConfig scaled_single(instr_t instr, double interval_factor = 1.0) {
  validation::ScaleSpec spec = scale();
  spec.instr_per_core = instr;
  return validation::scaled_single(spec, interval_factor);
}

/// Paper dual-core configuration with the bench-scaled interval.
inline SystemConfig scaled_dual(instr_t instr, double interval_factor = 1.0) {
  validation::ScaleSpec spec = scale();
  spec.instr_per_core = instr;
  return validation::scaled_dual(spec, interval_factor);
}

inline void print_scale_banner(const char* what, const SystemConfig& cfg,
                               instr_t instr) {
  std::fputs(validation::scale_banner(what, cfg, instr, threads()).c_str(),
             stdout);
}

}  // namespace esteem::bench
