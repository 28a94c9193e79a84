// The full memory hierarchy: private L1s, the shared banked eDRAM L2 with a
// pluggable refresh technique, and main memory. This is the component the
// in-order cores issue loads/stores against. It is one functional hierarchy
// (L1s, L2 tags) driven for one or more refresh lanes (cpu/refresh_lane.hpp):
// runs of refresh-only techniques share the L1/L2 pass and differ only in
// their lanes' timing. Each run is closed from its lane by finish(), the one
// place a RawRunResult is assembled.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/bank.hpp"
#include "cache/cache.hpp"
#include "cache/module_map.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "core/controller.hpp"
#include "cpu/refresh_lane.hpp"
#include "cpu/technique.hpp"
#include "edram/decay.hpp"
#include "edram/fault_injection.hpp"
#include "edram/refresh_policy.hpp"
#include "energy/energy_model.hpp"
#include "mem/main_memory.hpp"
#include "profiler/atd.hpp"
#include "profiler/leader_sets.hpp"
#include "telemetry/telemetry.hpp"

namespace esteem::cpu {

struct MemorySystemStats {
  std::uint64_t demand_l2_hits = 0;
  std::uint64_t demand_l2_misses = 0;
  std::uint64_t l2_writeback_accesses = 0;  ///< L1 dirty victims written to L2.
  std::uint64_t mm_writebacks = 0;          ///< L2 dirty victims + flushes.
  std::uint64_t reconfig_transitions = 0;   ///< N_L
  std::uint64_t reconfig_writebacks = 0;
};

/// One run's measured result. finish() fills everything but the per-core IPC
/// and the instruction counts, which the driver of the cores knows.
struct RawRunResult {
  std::vector<double> ipc;             ///< Per-core IPC at its target crossing.
  instr_t instr_per_core = 0;
  instr_t total_instructions = 0;      ///< Sum of per-core targets.
  cycle_t wall_cycles = 0;             ///< Measurement start to the last core's finish.
  energy::EnergyCounters counters;     ///< Energy-model inputs over the run.
  MemorySystemStats mem_stats;
  std::uint64_t refreshes = 0;         ///< N_R over the run.
  std::uint64_t demand_misses = 0;     ///< L2 demand misses over the run.
  double avg_active_ratio = 1.0;       ///< Time-weighted F_A.
  edram::FaultCounters faults;         ///< Fault-injection events (zero when off).
  std::uint64_t disabled_slots = 0;    ///< L2 slots retired by faults (state).
};

/// Cumulative flow-counter snapshot the sampling executor takes around each
/// measured window; per-window deltas of these become the ratio-estimator
/// inputs (docs/SAMPLING.md). All values are since start_measurement.
struct FlowSnapshot {
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t demand_hits = 0;
  std::uint64_t demand_misses = 0;
  std::uint64_t l2_writeback_accesses = 0;
  std::uint64_t mm_reads = 0;
  std::uint64_t mm_writes = 0;
  std::uint64_t mm_writebacks = 0;
  /// Tick-driven flush writebacks (reconfiguration/decay). A window's delta
  /// of these is subtracted from its mm flow: an interval boundary landing
  /// inside a window would otherwise inject one flush's worth of writes into
  /// a 40k-instruction rate sample and be amplified by the whole-run scale.
  std::uint64_t reconfig_writebacks = 0;
  std::uint64_t corrected_reads = 0;
  std::uint64_t refreshes = 0;
  double fa_cycles = 0.0;  ///< F_A integral (closed + open window), in cycles.
};

class MemorySystem {
 public:
  /// One lane running `technique`. Throws std::invalid_argument on an
  /// invalid config, and when fault injection is on and the ecc-extended
  /// technique's extension lies beyond [faults] max_tracked_extension.
  MemorySystem(const SystemConfig& cfg, Technique technique);

  /// One lane per technique over one shared hierarchy. More than one lane
  /// needs every technique fusable under `cfg` (cpu/technique.hpp); throws
  /// std::invalid_argument otherwise, or when `techniques` is empty.
  MemorySystem(const SystemConfig& cfg, const std::vector<Technique>& techniques);

  /// One load/store by `core` issued at `now` on every lane; returns its
  /// latency on lane 0. Leaves the lane clocks alone.
  cycle_t access(std::uint32_t core, block_t block, bool is_store, cycle_t now);

  /// One (gap, memory-op) batch of `core` on every lane: each lane's clock
  /// for `core` moves past the `gap` non-memory instructions, issues the
  /// access and waits out that lane's latency. One L1/L2 pass serves all.
  void step(std::uint32_t core, std::uint32_t gap, block_t block, bool is_store);

  /// Sampling functional warming: moves each lane's clock for `core` past
  /// `retired` instructions at `cpi`, then issues the access there. The
  /// access mutates cache/refresh/profiler state; its latency is a
  /// warming-mode nominal value and is not charged to the clock.
  void step_warm(std::uint32_t core, instr_t retired, block_t block, bool is_store,
                 double cpi);

  /// Moves each lane's clock for `core` by `n` instructions at `cpi` cycles
  /// per instruction (sampling fast-forward).
  void advance_clock(std::uint32_t core, instr_t n, double cpi);

  /// Idles `core` forward to `t` on every lane (sampling clock alignment).
  void idle_until(std::uint32_t core, cycle_t t) noexcept;

  /// Lane `lane`'s clock for `core`, and its wall clock (slowest core).
  cycle_t cycles(std::uint32_t core, std::size_t lane = 0) const noexcept {
    return lanes_[lane].clocks[core].cycles;
  }
  cycle_t wall(std::size_t lane = 0) const noexcept { return lanes_[lane].wall(); }

  /// Cycles lane `lane`'s clock for `core` has run since measurement began.
  cycle_t measured_cycles(std::uint32_t core, std::size_t lane = 0) const noexcept {
    const CoreClock& clk = lanes_[lane].clocks[core];
    return clk.cycles - clk.start;
  }

  /// Arms every lane's interval boundary one interval past its wall clock.
  /// Disarmed until then, so warm-up never ticks.
  void arm_intervals();

  /// Fires every interval boundary each lane's wall clock has passed.
  /// Called once per simulated reference, hence defined here to be inlined.
  void pump_intervals() {
    for (RefreshLane& ln : lanes_) {
      if (ln.next_tick == RefreshLane::kNever) continue;
      const cycle_t w = ln.wall();
      while (w >= ln.next_tick) {
        tick(ln, ln.next_tick);
        ln.next_tick += cfg_.esteem.interval_cycles;
      }
    }
  }

  /// Interval boundary at `now` on every lane: pump refresh, run ESTEEM's
  /// algorithm, re-derive the bank refresh load, and integrate F_A over the
  /// elapsed window.
  void tick_interval(cycle_t now);

  /// Closes lane `lane`'s run at its last core's clock: pumps refresh and
  /// fault epochs up to there, closes the F_A integral and returns the
  /// run's result, IPC and instruction counts left empty.
  RawRunResult finish(std::size_t lane = 0);

  /// Ends the warm-up phase: zeroes every measurement counter (cache/memory
  /// stats, refresh totals, F_A integral, reconfiguration counts) while
  /// keeping the warmed cache contents and timing state. Mirrors the
  /// paper's fast-forward-then-measure methodology (§6.4). Each lane starts
  /// measuring at its own wall clock.
  void start_measurement();

  /// Energy counters accumulated so far on lane `lane` (Eq. 2-8 inputs).
  energy::EnergyCounters energy_counters(cycle_t now, std::size_t lane = 0) const;

  /// Sampling warming mode. While on, accesses update all functional state
  /// (cache tags/LRU/dirty bits, refresh and fault epochs, ESTEEM profiler
  /// histograms) exactly as in detailed mode, but timing side-effects are
  /// nominal: bank contention is not consulted (zero wait) and main-memory
  /// transfers neither occupy the channel nor count as memory traffic —
  /// fills are charged the unloaded latency. Detailed windows must run with
  /// warming off so their deltas carry real timing.
  void set_warming(bool on) noexcept { warming_ = on; }
  bool warming() const noexcept { return warming_; }

  /// Run-scoped sampled-execution mode (set once by the sampling executor,
  /// independent of the per-segment warming toggle): an interval boundary
  /// that saw zero hierarchy accesses fell entirely inside a fast-forward
  /// skip — a measurement gap, not workload idleness — so the controller
  /// decision (and its history decay) is held for that interval. Intervals
  /// that overlapped any executed segment decide normally, even if their
  /// leader sets happened to sample nothing: empty leader histograms on a
  /// live interval are real information the exhaustive controller also acts
  /// on. Off by default; exhaustive runs are bit-identical.
  void set_sampled_mode(bool on) noexcept { sampled_mode_ = on; }

  /// Flow counters since start_measurement on lane 0 (see FlowSnapshot).
  FlowSnapshot flow_snapshot(cycle_t now) const;

  /// Hierarchy counters: the same on every lane.
  const MemorySystemStats& stats() const noexcept { return stats_; }
  const cache::CacheStats& l2_stats() const noexcept { return l2_.stats(); }

  const mem::MainMemoryStats& mm_stats(std::size_t lane = 0) const noexcept {
    return lanes_[lane].mm.stats();
  }
  std::uint64_t refreshes(std::size_t lane = 0) const noexcept {
    return lanes_[lane].refreshes();
  }

  /// Current F_A (1.0 for techniques that never power ways down).
  double active_fraction() const noexcept;

  /// Fault-injection event counters for the measurement window (all zero
  /// when [faults] is disabled).
  edram::FaultCounters fault_counters() const noexcept {
    return faults_ ? faults_->counters() : edram::FaultCounters{};
  }

  /// Slots retired by repeated uncorrectable failures (cumulative state).
  std::uint64_t disabled_slots() const noexcept { return l2_.disabled_slots(); }

  /// Per-module active way counts (for the Figure 2 timeline); empty for
  /// non-ESTEEM techniques.
  std::vector<std::uint32_t> module_active_ways() const;

  std::size_t lanes() const noexcept { return lanes_.size(); }
  Technique technique(std::size_t lane = 0) const noexcept {
    return lanes_[lane].technique;
  }
  cache::SetAssocCache& l2() noexcept { return l2_; }

  /// Attaches a per-run telemetry sink to lane `lane` (null detaches) and
  /// records `now` and the current module allocation as its start. An
  /// interval row is recorded at every interval boundary from `now` on;
  /// delta baselines start at the current (just-reset) counters. The sink
  /// must outlive the run. No-op cost when never attached.
  void set_telemetry(telemetry::RunSink* sink, cycle_t now, std::size_t lane = 0);

 private:
  /// Hands the L2's line events to every lane's policy, each at that lane's
  /// own cycle (RefreshLane::at). Installed only with two or more lanes; a
  /// single lane's policy listens to the L2 directly.
  class LaneFanout final : public cache::LineListener {
   public:
    explicit LaneFanout(std::vector<RefreshLane>& lanes);
    void on_fill(std::uint32_t set, std::uint32_t way, block_t blk, cycle_t) override;
    void on_touch(std::uint32_t set, std::uint32_t way, cycle_t) override;
    void on_invalidate(std::uint32_t set, std::uint32_t way, bool dirty,
                       cycle_t) override;
    bool wants_touch() const noexcept override { return !touch_.empty(); }

   private:
    std::vector<RefreshLane>& lanes_;
    std::vector<RefreshLane*> touch_;  ///< Lanes whose policy wants_touch().
  };

  /// Serves one access issued on each lane at `issue(lane)`. An L1 hit
  /// returns true and touches no lane: every lane's latency is the L1's.
  /// Otherwise each lane is left holding its issue cycle in `issue` and the
  /// access's latency in `latency`.
  template <class IssueFn>
  bool access_lanes(std::uint32_t core, block_t block, bool is_store, IssueFn&& issue);

  /// One L2 operation at each lane's `at`; leaves its latency in
  /// `l2_latency`.
  void l2_access(block_t block, bool is_store, bool demand);

  /// Interval boundary on one lane.
  void tick(RefreshLane& ln, cycle_t now);

  /// Zeroes the hierarchy's measurement counters.
  void reset_hierarchy();

  /// Restarts one lane's measured window at `now`.
  void reset_lane(RefreshLane& ln, cycle_t now);

  /// Records one interval row into the lane's telemetry sink.
  void sample_interval(RefreshLane& ln, cycle_t now);

  /// Processes fault-injection refresh epochs scheduled up to `now`.
  void pump_faults(cycle_t now);

  SystemConfig cfg_;

  // The functional hierarchy: everything that decides hits, misses and
  // victims. Fault injection, RPD, Cache Decay and ESTEEM mutate it on their
  // run's clock, so they only ever run on a single lane.
  std::vector<cache::SetAssocCache> l1_;
  cache::SetAssocCache l2_;
  cache::ModuleMap modules_;

  // Fault injection (null when [faults] is disabled).
  std::unique_ptr<edram::FaultInjector> faults_;
  std::uint32_t fault_extension_ = 1;   ///< Effective refresh-interval extension.
  std::uint32_t fault_correctable_ = 0; ///< ECC strength seen by the injector.
  cycle_t fault_epoch_cycles_ = 0;
  cycle_t fault_next_epoch_ = 0;

  // CacheDecay-only bookkeeping (view into the lane's policy when active).
  edram::CacheDecayPolicy* decay_ = nullptr;
  std::uint64_t decay_wb_seen_ = 0;
  std::uint64_t decay_trans_seen_ = 0;

  // ESTEEM-only machinery.
  std::unique_ptr<profiler::LeaderSets> leaders_;
  std::unique_ptr<profiler::ModuleProfiler> profiler_;
  std::unique_ptr<core::EsteemController> controller_;

  MemorySystemStats stats_;
  bool warming_ = false;       ///< Sampling warming mode (see set_warming).
  bool sampled_mode_ = false;  ///< Sampled run (see set_sampled_mode).
  std::uint64_t accesses_since_tick_ = 0;  ///< Detects skip-only intervals.

  std::vector<RefreshLane> lanes_;
  std::unique_ptr<LaneFanout> fanout_;  ///< Null with a single lane.
};

}  // namespace esteem::cpu
