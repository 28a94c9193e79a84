// The full memory hierarchy: private L1s, the shared banked eDRAM L2 with a
// pluggable refresh technique, and main memory. This is the component the
// in-order cores issue loads/stores against.
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
#include "cpu/technique.hpp"
#include "edram/decay.hpp"
#include "edram/fault_injection.hpp"
#include "edram/refresh_engine.hpp"
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

/// Cumulative flow-counter snapshot the sampling executor takes around each
/// measured window; per-window deltas of these become the ratio-estimator
/// inputs (docs/SAMPLING.md). All values are since reset_measurement.
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
  /// Throws std::invalid_argument on an invalid config, and when fault
  /// injection is on and the ecc-extended technique's extension lies beyond
  /// [faults] max_tracked_extension.
  MemorySystem(const SystemConfig& cfg, Technique technique);

  /// One load/store by `core`; returns its latency in cycles.
  cycle_t access(std::uint32_t core, block_t block, bool is_store, cycle_t now);

  /// Interval boundary: pump refresh, run ESTEEM's algorithm, re-derive the
  /// bank refresh load, and integrate F_A over the elapsed window.
  void tick_interval(cycle_t now);

  /// Final bookkeeping at end of simulation (closes the F_A integral and
  /// pumps refresh events up to `now`).
  void finish(cycle_t now);

  /// Ends the warm-up phase: zeroes every measurement counter (cache/memory
  /// stats, refresh totals, F_A integral, reconfiguration counts) while
  /// keeping the warmed cache contents and timing state. Mirrors the
  /// paper's fast-forward-then-measure methodology (§6.4).
  void reset_measurement(cycle_t now);

  /// Energy counters accumulated so far (Eq. 2-8 inputs). `freq_ghz` is
  /// needed to convert cycles to seconds.
  energy::EnergyCounters energy_counters(cycle_t now) const;

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

  /// Flow counters since reset_measurement (see FlowSnapshot).
  FlowSnapshot flow_snapshot(cycle_t now) const;

  const MemorySystemStats& stats() const noexcept { return stats_; }
  const mem::MainMemoryStats& mm_stats() const noexcept { return mm_.stats(); }
  const cache::CacheStats& l2_stats() const noexcept { return l2_.stats(); }

  std::uint64_t refreshes() const noexcept {
    return engine_->total_refreshes() - refresh_baseline_;
  }

  /// Current F_A (1.0 for non-ESTEEM techniques).
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

  Technique technique() const noexcept { return technique_; }
  cache::SetAssocCache& l2() noexcept { return l2_; }

  /// Attaches a per-run telemetry sink (null detaches). Interval rows and
  /// simulated-time trace events are emitted at every tick_interval from
  /// `now` on; delta baselines start at the current (just-reset) counters.
  /// The sink must outlive the run. No-op cost when never attached.
  void set_telemetry(telemetry::RunSink* sink, cycle_t now);

 private:
  cycle_t l2_access(block_t block, bool is_store, cycle_t now, bool demand);

  /// Emits one interval telemetry sample (recorder row + trace events).
  void sample_interval(cycle_t now);

  /// Processes fault-injection refresh epochs scheduled up to `now`.
  void pump_faults(cycle_t now);

  SystemConfig cfg_;
  Technique technique_;

  std::vector<cache::SetAssocCache> l1_;
  cache::SetAssocCache l2_;
  cache::BankGroup banks_;
  cache::ModuleMap modules_;
  mem::MainMemory mm_;

  std::unique_ptr<edram::RefreshPolicy> policy_;
  std::unique_ptr<edram::RefreshEngine> engine_;

  // Fault injection (null when [faults] is disabled).
  std::unique_ptr<edram::FaultInjector> faults_;
  std::uint32_t fault_extension_ = 1;   ///< Effective refresh-interval extension.
  std::uint32_t fault_correctable_ = 0; ///< ECC strength seen by the injector.
  cycle_t fault_epoch_cycles_ = 0;
  cycle_t fault_next_epoch_ = 0;

  // CacheDecay-only bookkeeping (view into policy_ when active).
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

  // Per-run telemetry sink (null = telemetry off, the default). Baselines
  // hold the previous interval's cumulative counters so samples are deltas.
  telemetry::RunSink* telemetry_ = nullptr;
  struct TelemetryBaseline {
    std::uint64_t demand_hits = 0;
    std::uint64_t demand_misses = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t transitions = 0;
    std::uint64_t reconfig_writebacks = 0;
    std::uint64_t corrected_reads = 0;
    std::uint64_t uncorrectable = 0;
  } tel_last_;
  cycle_t tel_last_cycle_ = 0;
  std::vector<std::uint32_t> tel_last_ways_;  ///< Ways in effect last window.

  // Time-weighted F_A integral (in cycles).
  double fa_cycles_ = 0.0;
  cycle_t fa_last_update_ = 0;
  double fa_current_ = 1.0;
  cycle_t measure_start_ = 0;  ///< Cycle at which measurement began.
  std::uint64_t refresh_baseline_ = 0;  ///< Refreshes before measurement.
};

}  // namespace esteem::cpu
