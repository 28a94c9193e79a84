// SMARTS-style systematic-sampling executor (Wunderlich et al., ISCA'03,
// adapted to this simulator — see docs/SAMPLING.md).
//
// Instead of simulating every instruction in detail, the run is divided into
// fixed periods; each period ends in a short detailed measurement window and
// the rest is covered by an analytic generator skip plus a functional-warming
// ramp that keeps cache tags/LRU/dirty bits, refresh and fault epochs, and
// the ESTEEM profiler warm. Only timing/energy accounting is sampled: the
// per-window deltas become ratio estimates with Student-t confidence
// intervals, while time-accruing machinery (refresh lane, fault epochs,
// the reconfiguration controller) runs continuously on a clock advanced at
// the measured CPI.
#pragma once

#include "common/config.hpp"
#include "cpu/system.hpp"
#include "sampling/estimates.hpp"

namespace esteem::sampling {

struct SampledRunResult {
  cpu::RawRunResult raw;       ///< Point values, shaped like an exhaustive run.
  SamplingEstimates estimates; ///< The same metrics with confidence intervals.
};

/// Runs `sys` under systematic sampling. `options` carries the same targets
/// as cpu::System::run; `sc.enabled` must be true and the run must cover at
/// least two full periods (throws std::invalid_argument otherwise — one
/// window has no variance to build a CI from). `sink`, when set, records
/// the run's interval series and must outlive the call.
SampledRunResult run_sampled(cpu::System& sys, const cpu::RunOptions& options,
                             const SamplingConfig& sc,
                             telemetry::RunSink* sink = nullptr);

}  // namespace esteem::sampling
