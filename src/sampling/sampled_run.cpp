#include "sampling/sampled_run.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>


namespace esteem::sampling {

namespace {

/// Re-aligns multicore clocks at segment boundaries by idling every core to
/// the max. Analytic segments advance each core at its own CPI estimate, so
/// the clocks skew apart in time; the shared bank/channel model would charge
/// that skew to the lagging core's next access as queueing delay (the ahead
/// core's reservations sit millions of cycles in its future), which inflates
/// its window CPI, which widens the next skip's skew — a divergent feedback
/// loop. Idling the fast core at the boundary is the time-domain face of the
/// instruction-space schedule bias documented in docs/SAMPLING.md §5.
void align_clocks(cpu::MemorySystem& mem, std::size_t ncores) {
  if (ncores < 2) return;
  cycle_t m = 0;
  for (std::uint32_t c = 0; c < ncores; ++c) m = std::max(m, mem.cycles(c));
  for (std::uint32_t c = 0; c < ncores; ++c) mem.idle_until(c, m);
}

std::uint64_t rounded(double v) {
  return v > 0.0 ? static_cast<std::uint64_t>(v + 0.5) : 0;
}

}  // namespace

SampledRunResult run_sampled(cpu::System& sys, const cpu::RunOptions& options,
                             const SamplingConfig& sc, telemetry::RunSink* sink) {
  cpu::MemorySystem& mem = sys.memory();
  std::vector<cpu::Core>& cores = sys.cores();
  const std::size_t ncores = cores.size();

  const instr_t period = sc.period_instr;
  const instr_t window = sc.window_instr;
  const instr_t dwarm = sc.detail_warm_instr;
  const instr_t ffwarm = sc.ff_warm_instr;
  const instr_t pre_skip = period - window - dwarm - ffwarm;  // validated > 0
  const std::uint64_t nwindows = options.instr_per_core / period;
  if (nwindows < 2) {
    throw std::invalid_argument(
        "sampling: instr_per_core must cover >= 2 periods (got " +
        std::to_string(options.instr_per_core) + " instructions at period " +
        std::to_string(period) + ")");
  }

  if (mem.lanes() != 1) {
    throw std::invalid_argument("sampling: a sampled run drives exactly one lane");
  }
  mem.set_sampled_mode(true);

  // --- Warm-up: analytic skip, then a functional-warming tail that rebuilds
  // cache/refresh/profiler state before measurement (the refresh lane
  // catches up to the skipped time on the first warming access). The clock
  // advances at CPI 1 here; warm-up timing is never measured.
  std::vector<double> cpi(ncores, 1.0);
  const auto warm_step = [&](std::size_t c) { cores[c].step_warm(mem, cpi[c]); };
  const auto detailed_step = [&sys](std::size_t c) { sys.step(c); };
  const instr_t warm_tail =
      std::min(options.warmup_instr_per_core, sc.cold_warm_instr);
  const instr_t warm_skip = options.warmup_instr_per_core - warm_tail;
  if (warm_skip > 0) {
    for (cpu::Core& core : cores) core.skip(mem, warm_skip, 1.0);
  }
  if (warm_tail > 0) {
    mem.set_warming(true);
    sys.run_to(std::vector<instr_t>(ncores, options.warmup_instr_per_core), warm_step);
    mem.set_warming(false);
  }
  align_clocks(mem, ncores);

  mem.start_measurement();
  if (sink != nullptr) mem.set_telemetry(sink, mem.wall());
  mem.arm_intervals();

  std::vector<instr_t> base_instr(ncores);
  for (std::size_t c = 0; c < ncores; ++c) base_instr[c] = cores[c].instret();

  // Per-window observation series. Flow counters are recorded as
  // per-instruction rates over the window's aggregate retired instructions.
  std::vector<SampleSeries> ipc_series(ncores), cpi_series(ncores);
  SampleSeries s_l2_hits, s_l2_misses, s_demand_hits, s_demand_misses;
  SampleSeries s_wb_accesses, s_mm, s_mm_writebacks, s_corrected;

  std::vector<instr_t> seg_target(ncores);
  std::vector<instr_t> w_i0(ncores);
  std::vector<cycle_t> w_c0(ncores);

  for (std::uint64_t k = 0; k < nwindows; ++k) {
    // SKIP: analytic fast-forward at the running CPI estimate.
    for (std::size_t c = 0; c < ncores; ++c) {
      seg_target[c] = base_instr[c] + k * period + pre_skip;
      if (cores[c].instret() < seg_target[c]) {
        cores[c].skip(mem, seg_target[c] - cores[c].instret(), cpi[c]);
      }
    }
    align_clocks(mem, ncores);
    mem.pump_intervals();

    // FF_WARM: functional warming re-establishes microarchitectural state.
    mem.set_warming(true);
    for (std::size_t c = 0; c < ncores; ++c) seg_target[c] += ffwarm;
    sys.run_to(seg_target, warm_step);
    mem.set_warming(false);
    align_clocks(mem, ncores);

    // DETAIL_WARM: detailed execution, unmeasured — drains the warming-mode
    // timing transient (cold banks, unloaded memory channel) before the
    // window opens.
    for (std::size_t c = 0; c < ncores; ++c) seg_target[c] += dwarm;
    sys.run_to(seg_target, detailed_step);

    // WINDOW: detailed and measured.
    const cpu::FlowSnapshot before = mem.flow_snapshot(mem.wall());
    for (std::size_t c = 0; c < ncores; ++c) {
      w_i0[c] = cores[c].instret();
      w_c0[c] = mem.cycles(c);
      seg_target[c] += window;
    }
    sys.run_to(seg_target, detailed_step);
    const cpu::FlowSnapshot after = mem.flow_snapshot(mem.wall());

    double w_instr = 0.0;
    for (std::size_t c = 0; c < ncores; ++c) {
      const double di = static_cast<double>(cores[c].instret() - w_i0[c]);
      const double dc = static_cast<double>(mem.cycles(c) - w_c0[c]);
      ipc_series[c].add(di / dc);
      cpi_series[c].add(dc / di);
      cpi[c] = cpi_series[c].mean();  // refine the fast-forward clock rate
      w_instr += di;
    }
    const auto rate = [w_instr](std::uint64_t hi, std::uint64_t lo) {
      return static_cast<double>(hi - lo) / w_instr;
    };
    // Reconfiguration/decay flushes are tick-driven, not flow: an interval
    // boundary inside the window would inject one flush's worth of memory
    // writes into this 40k-instruction rate sample and get amplified by the
    // whole-run scale. They are excluded here and accounted once, globally.
    const std::uint64_t d_flush =
        after.reconfig_writebacks - before.reconfig_writebacks;
    s_l2_hits.add(rate(after.l2_hits, before.l2_hits));
    s_l2_misses.add(rate(after.l2_misses, before.l2_misses));
    s_demand_hits.add(rate(after.demand_hits, before.demand_hits));
    s_demand_misses.add(rate(after.demand_misses, before.demand_misses));
    s_wb_accesses.add(
        rate(after.l2_writeback_accesses, before.l2_writeback_accesses));
    s_mm.add(rate(after.mm_reads + after.mm_writes,
                  before.mm_reads + before.mm_writes + d_flush));
    s_mm_writebacks.add(
        rate(after.mm_writebacks, before.mm_writebacks + d_flush));
    s_corrected.add(rate(after.corrected_reads, before.corrected_reads));
  }

  // Tail: skip the residual past the last window so the run covers exactly
  // instr_per_core instructions of simulated time.
  for (std::size_t c = 0; c < ncores; ++c) {
    const instr_t final_target = base_instr[c] + options.instr_per_core;
    if (cores[c].instret() < final_target) {
      cores[c].skip(mem, final_target - cores[c].instret(), cpi[c]);
    }
  }
  mem.pump_intervals();

  // --- Assemble estimates and the exhaustive-shaped point result: the
  // lane's own result, with the flow fields replaced by their estimates.
  SampledRunResult out;
  out.raw = mem.finish();
  cpu::RawRunResult& result = out.raw;
  result.instr_per_core = options.instr_per_core;
  result.total_instructions = options.instr_per_core * ncores;
  const double total_instr =
      static_cast<double>(options.instr_per_core) * static_cast<double>(ncores);

  SamplingEstimates& est = out.estimates;
  est.enabled = true;
  est.windows = nwindows;
  est.window_instr = window;
  est.detailed_instr = nwindows * (dwarm + window);

  est.ipc.resize(ncores);
  result.ipc.resize(ncores);
  for (std::size_t c = 0; c < ncores; ++c) {
    est.ipc[c] = ipc_series[c].estimate();
    result.ipc[c] = est.ipc[c].value;
  }

  {
    // The internal clock already advanced every skip at the measured CPI, so
    // it IS the wall estimate; its CI comes from the slowest core's CPI
    // spread scaled to its full instruction count.
    std::size_t slow = 0;
    for (std::size_t c = 1; c < ncores; ++c) {
      if (cpi_series[c].mean() > cpi_series[slow].mean()) slow = c;
    }
    const Estimate slow_wall = cpi_series[slow].estimate(
        static_cast<double>(options.instr_per_core));
    est.wall_cycles =
        Estimate{static_cast<double>(result.wall_cycles), slow_wall.half_ci};
  }

  est.l2_hits = s_l2_hits.estimate(total_instr);
  est.l2_misses = s_l2_misses.estimate(total_instr);
  est.demand_hits = s_demand_hits.estimate(total_instr);
  est.demand_misses = s_demand_misses.estimate(total_instr);
  est.l2_writeback_accesses = s_wb_accesses.estimate(total_instr);
  est.mm_writebacks = s_mm_writebacks.estimate(total_instr);
  est.corrected_reads = s_corrected.estimate(total_instr);
  // Demand memory traffic is window-sampled; reconfiguration/decay flush
  // writebacks are tick-driven and ran continuously, so add them globally.
  est.mm_accesses = s_mm.estimate(total_instr);
  est.mm_accesses.value += static_cast<double>(result.mem_stats.reconfig_writebacks);

  // Refreshes accrued continuously on the estimated clock; their only
  // sampling uncertainty is the clock's.
  const double refr = static_cast<double>(result.refreshes);
  est.refreshes = Estimate{refr, refr * est.wall_cycles.relative()};
  est.fa_fraction = result.avg_active_ratio;

  // Overwrite the flow counters the hierarchy accumulated (contaminated by
  // warming, missing the skips) with the window estimates; time-accruing
  // fields (seconds, fa_seconds, refreshes, transitions) stay as measured.
  result.counters.l2_hits = rounded(est.l2_hits.value);
  result.counters.l2_misses = rounded(est.l2_misses.value);
  result.counters.mm_accesses = rounded(est.mm_accesses.value);
  result.counters.ecc_corrections = rounded(est.corrected_reads.value);

  result.mem_stats.demand_l2_hits = rounded(est.demand_hits.value);
  result.mem_stats.demand_l2_misses = rounded(est.demand_misses.value);
  result.mem_stats.l2_writeback_accesses =
      rounded(est.l2_writeback_accesses.value);
  result.mem_stats.mm_writebacks =
      rounded(est.mm_writebacks.value +
              static_cast<double>(result.mem_stats.reconfig_writebacks));
  result.demand_misses = rounded(est.demand_misses.value);
  result.faults.corrected_reads = rounded(est.corrected_reads.value);
  return out;
}

}  // namespace esteem::sampling
