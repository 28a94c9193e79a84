// System configuration mirroring the paper's experimental setup (§6.1, §7).
//
// Defaults are the paper's defaults: 2 GHz cores; 32 KB / 4-way / 2-cycle
// private L1s; shared 16-way / 12-cycle / 4-bank eDRAM L2 (4 MB single-core,
// 8 MB dual-core); 220-cycle main memory at 10 GB/s (single) / 15 GB/s
// (dual); 50 us retention; ESTEEM with alpha = 0.97, A_min = 3, R_s = 64,
// 10 M-cycle intervals, 8 (single) / 16 (dual) modules.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace esteem {

/// Size/shape of a set-associative cache.
struct CacheGeometry {
  std::uint64_t size_bytes = 4ULL * 1024 * 1024;
  std::uint32_t ways = 16;
  std::uint32_t line_bytes = 64;

  std::uint32_t sets() const noexcept {
    return static_cast<std::uint32_t>(size_bytes / (static_cast<std::uint64_t>(ways) * line_bytes));
  }
  std::uint64_t lines() const noexcept { return size_bytes / line_bytes; }
};

struct L1Config {
  CacheGeometry geom{32ULL * 1024, 4, 64};
  std::uint32_t latency_cycles = 2;
};

struct L2Config {
  CacheGeometry geom{4ULL * 1024 * 1024, 16, 64};
  std::uint32_t latency_cycles = 12;
  std::uint32_t banks = 4;
  /// Cycles a demand access occupies its bank (partially pipelined bank
  /// service; smaller than the 12-cycle access latency).
  std::uint32_t access_occupancy_cycles = 4;
  /// Effective bank-interference cycles per refreshed line (may be
  /// fractional). §6.3 assumes refreshing a line costs the time of an
  /// access; we default to 4 cycles of effective interference (calibration
  /// knob — see DESIGN.md) so baseline refresh pressure scales with cache
  /// size and retention the way the paper's results do: moderate at
  /// 4 MB/50 us, near bank saturation at 8-16 MB or 40 us. The bank model
  /// clamps the interference so refresh alone never over-subscribes a bank.
  double refresh_occupancy_cycles = 4.0;
  /// Scale of the analytic queueing-delay term added on top of the explicit
  /// bank busy window (see cache::BankTimer). 0 disables it.
  double queue_pressure = 2.0;
};

/// Refrint keeps one phase tag byte per L2 slot, so at most 256 phases.
inline constexpr std::uint32_t kMaxRpvPhases = 256;

struct EdramConfig {
  /// Retention period: how long a cell holds data without refresh. The paper
  /// uses 50 us (60 C operating point) by default and 40 us in §7.3.
  double retention_us = 50.0;
  /// Number of Refrint polyphase phases (the paper evaluates RPV with 4),
  /// at most kMaxRpvPhases.
  std::uint32_t rpv_phases = 4;
  /// Correctable bits per line for the EccExtended technique.
  std::uint32_t ecc_correctable = 4;
  /// Residual per-line failure-probability budget for choosing the ECC
  /// refresh-interval extension.
  double ecc_target_line_failure = 1e-9;
};

/// Idle time after which the CacheDecay technique gates a line off, as a
/// multiple of the retention period (Kaxiras-style decay interval).
inline constexpr double kDecayIntervalRetentions = 8.0;

struct MemoryConfig {
  std::uint32_t latency_cycles = 220;
  double bandwidth_gbps = 10.0;
};

/// Multiplicative calibration scale on the Table 2 per-line refresh energy
/// (1.0 = paper-exact). The validation layer perturbs it to prove the
/// golden-drift gate notices energy-model changes (see DESIGN.md §9).
struct EnergyScaleConfig {
  /// Scales the per-line refresh energy (RE_L2, Eq. 6).
  double refresh_scale = 1.0;
};

/// Retention-fault injection (off by default). When enabled, a deterministic
/// per-line weak-cell map is sampled from the lognormal cell-retention
/// distribution and real decay events are threaded through the cache: lines
/// with few failed bits are ECC-corrected (latency + energy penalty), clean
/// uncorrectable lines are silently invalidated and re-fetched, dirty
/// uncorrectable lines count as data loss, and repeat offenders are disabled
/// (way-level capacity degradation).
struct FaultConfig {
  bool enabled = false;
  /// Seed of the weak-cell map (independent of the workload seed so the
  /// same physical cache can be reused across workloads).
  std::uint64_t seed = 0xEDAC;
  /// Median cell retention as a multiple of the nominal period (see
  /// edram::CellRetentionModel).
  double median_multiple = 32.0;
  /// Sigma of ln(retention).
  double sigma = 0.35;
  /// Extra cycles an L2 hit pays when the line holds ECC-corrected bits.
  std::uint32_t correction_latency_cycles = 3;
  /// Uncorrectable events on the same line before it is disabled.
  std::uint32_t disable_threshold = 3;
  /// Largest refresh-interval extension the weak-cell map resolves, in
  /// [1, kMaxTrackedExtension].
  std::uint32_t max_tracked_extension = 16;
};

/// Cap on FaultConfig::max_tracked_extension. A run reads the weak-cell map
/// at extension 1 or at its ECC-extended policy's extension, which
/// edram::max_safe_extension never sets above its limit of 16; the cap
/// leaves 4x headroom over that. The map samples its weak tail out to the
/// tracked extension, so the cost of each column pass grows with it (under
/// the default model a cell fails within 64 periods with p ~ 0.98, so a
/// pass at the cap draws nearly every cell), and its per-extension tables
/// grow linearly.
inline constexpr std::uint32_t kMaxTrackedExtension = 64;

/// SMARTS-style systematic sampling (src/sampling; docs/SAMPLING.md). Off by
/// default: an exhaustive run walks its whole trace and is bit-identical to
/// pre-sampling builds. When enabled, only short detailed windows are
/// measured (one per `period_instr` instructions per core) and every flow
/// metric becomes a point estimate with a confidence interval; the gaps are
/// crossed with an analytic fast-forward plus a functional-warming segment
/// that keeps cache tag/LRU, refresh, fault and profiler state hot. Like
/// every config section, these knobs change *what a run computes*, so they
/// are part of memo fingerprints and sweep hashes.
struct SamplingConfig {
  bool enabled = false;
  /// Detailed, measured window length in instructions per core.
  instr_t window_instr = 40'000;
  /// Detailed but unmeasured run-up immediately before each window: drains
  /// cold bank/channel timing state so the window starts in steady state.
  instr_t detail_warm_instr = 10'000;
  /// Functional-warming segment before the detailed run-up: cache, refresh
  /// and profiler state advance at full fidelity while timing is carried at
  /// the estimated CPI.
  instr_t ff_warm_instr = 200'000;
  /// Functional warming after the *initial* fast-forward (the pre-measurement
  /// warm-up skip), which starts from a cold cache and needs a longer ramp.
  instr_t cold_warm_instr = 2'000'000;
  /// Sampling period: one measured window per this many instructions per
  /// core. Choose it coprime-ish to the retention period and the
  /// reconfiguration interval (see docs/SAMPLING.md on aliasing).
  instr_t period_instr = 4'000'000;
};

/// Parameters of the ESTEEM energy-saving algorithm (§3, §4, §7).
struct EsteemParams {
  /// Hit-coverage threshold: keep enough ways on to cover >= alpha * hits.
  double alpha = 0.97;
  /// Minimum number of ways always kept on (never 1: direct-mapped LLCs
  /// lose too much performance, §3.1).
  std::uint32_t a_min = 3;
  /// Number of logical set modules the cache is divided into.
  std::uint32_t modules = 8;
  /// Reconfiguration interval in cycles, or kPaperScaledInterval (INI
  /// `paper-scaled`): the scaling rule, resolved per run by resolve_interval.
  cycle_t interval_cycles = 10'000'000;
  /// Set-sampling ratio R_s: one leader set per R_s sets feeds the profiler.
  std::uint32_t sampling_ratio = 64;
  /// Guard that limits turn-off to one way for modules with non-LRU hit
  /// patterns (Algorithm 1, lines 4-13). On by default per the paper;
  /// exposed so the ablation bench can disable it.
  bool nonlru_guard = true;
  /// Fraction of the previous intervals' (smoothed) histogram carried into
  /// this interval's decision: hist <- hist * history_weight + new. The
  /// paper decides from the last interval alone (weight 0), which is stable
  /// at its 10M-cycle intervals; scaled-down bench intervals collect few
  /// leader samples, so a modest exponential history suppresses
  /// noise-driven way oscillation (see DESIGN.md). 0 = paper-exact.
  double history_weight = 0.75;
  /// Extension (paper §7.2 future work): cap on |delta active ways| per
  /// module per interval. 0 disables the cap.
  std::uint32_t max_way_delta = 0;
  /// Extension (paper §7.2 future work): suppress a reconfiguration that
  /// reverses the previous interval's direction within this many intervals.
  /// 0 disables hysteresis.
  std::uint32_t hysteresis_intervals = 0;
  /// Extension (paper §7.2: "detecting and avoiding frequent
  /// reconfigurations"): apply a shrink only after the algorithm has asked
  /// to shrink for this many consecutive intervals. Growth is always
  /// immediate (it flushes nothing and protects performance). 0/1 =
  /// paper-exact immediate shrinking.
  std::uint32_t shrink_confirm_intervals = 0;
};

struct SystemConfig {
  std::uint32_t ncores = 1;
  double freq_ghz = 2.0;
  L1Config l1;
  L2Config l2;
  MemoryConfig mem;
  EdramConfig edram;
  EnergyScaleConfig energy;
  EsteemParams esteem;
  FaultConfig faults;
  SamplingConfig sampling;

  cycle_t retention_cycles() const noexcept {
    return static_cast<cycle_t>(edram.retention_us * 1000.0 * freq_ghz);
  }
  /// Main-memory channel occupancy per 64 B line transfer, in cycles.
  double mem_service_cycles() const noexcept {
    return static_cast<double>(l2.geom.line_bytes) / bandwidth_bytes_per_cycle();
  }
  double bandwidth_bytes_per_cycle() const noexcept {
    return mem.bandwidth_gbps / freq_ghz;
  }

  /// Paper defaults for a single-core system (§7).
  static SystemConfig single_core();
  /// Paper defaults for a dual-core system (§7): 8 MB L2, 15 GB/s, M = 16.
  static SystemConfig dual_core();

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;
};

/// The paper's measured instructions per core and reconfiguration interval
/// (§7). Shorter runs shrink the interval with the instruction count.
inline constexpr instr_t kPaperInstrPerCore = 400'000'000;
inline constexpr double kPaperIntervalCycles = 10'000'000.0;
/// Default interval lengthening for the synthetic workloads' lower IPC
/// (`ScaleSpec::interval_env_factor`; DESIGN.md §5).
inline constexpr double kIntervalEnvFactor = 4.0;
/// Reconfiguration-churn damping used by all scaled runs: the paper's
/// proposed hysteresis extension (§7.2) with a 2-interval window, because at
/// scaled intervals a one-way flush is ~50x more expensive relative to the
/// interval than at the paper's 10M cycles.
inline constexpr std::uint32_t kScaledHysteresis = 2;
inline constexpr std::uint32_t kScaledShrinkConfirm = 2;

/// The one interval-scaling rule (DESIGN.md §5): the 10M-cycle interval
/// scaled to `instr` instructions per core, times `env_factor` and
/// `interval_factor` (Table 3's 5M/15M rows are 0.5x/1.5x), floored at one
/// retention period. Multiplies before dividing by kPaperInstrPerCore.
cycle_t scaled_interval(const SystemConfig& cfg, instr_t instr,
                        double env_factor = kIntervalEnvFactor,
                        double interval_factor = 1.0);

/// Sets `cfg`'s interval to scaled_interval() and applies the scaled-run
/// hysteresis and shrink-confirm defaults.
void apply_scaled_interval(SystemConfig& cfg, instr_t instr,
                           double env_factor = kIntervalEnvFactor,
                           double interval_factor = 1.0);

/// `esteem.interval_cycles` value that stores the scaling rule instead of a
/// number (INI `paper-scaled`): a run's interval is scaled_interval(cfg,
/// instr) for its own instruction count, so one config file means the same
/// at every --instr. Only a config validate()s with it; a System refuses it
/// until resolve_interval() has replaced it.
inline constexpr cycle_t kPaperScaledInterval = 0;

/// apply_scaled_interval() with the run length left open: stores
/// kPaperScaledInterval and the scaled-run hysteresis and shrink-confirm
/// defaults.
void apply_paper_scaled_interval(SystemConfig& cfg);

/// Replaces a kPaperScaledInterval interval with scaled_interval(cfg,
/// instr); leaves a cycle count as it is.
void resolve_interval(SystemConfig& cfg, instr_t instr);

}  // namespace esteem
