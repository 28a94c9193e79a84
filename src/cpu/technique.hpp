// The refresh/energy-management techniques the simulator can run.
#pragma once

#include <string_view>

#include "common/config.hpp"

namespace esteem::cpu {

enum class Technique {
  /// Paper baseline: refresh every line each retention period; cache fully on.
  BaselinePeriodicAll,
  /// Refrint "periodic-valid": refresh only valid lines (extension; the
  /// paper cites it as inferior to RPV and does not evaluate it).
  PeriodicValid,
  /// Refrint polyphase-valid — the paper's comparison technique (§6.2).
  RefrintRPV,
  /// Refrint polyphase-dirty (extension; evaluated in the ablation bench).
  RefrintRPD,
  /// Smart-Refresh: per-line timestamps skip refreshes of recently touched
  /// lines (paper §2 related work; extension).
  SmartRefresh,
  /// ECC-assisted refresh-interval extension (paper §2 related work;
  /// extension). The ECC storage overhead is charged in the energy model.
  EccExtended,
  /// Cache Decay: per-line idle counters power-gate dead lines (paper §2
  /// related work [22]; extension). Block-granularity alternative to
  /// ESTEEM's way-granularity reconfiguration.
  CacheDecay,
  /// ESTEEM: dynamic selective-ways reconfiguration + valid-only refresh.
  Esteem,
};

constexpr std::string_view to_string(Technique t) {
  switch (t) {
    case Technique::BaselinePeriodicAll: return "baseline";
    case Technique::PeriodicValid: return "periodic-valid";
    case Technique::RefrintRPV: return "rpv";
    case Technique::RefrintRPD: return "rpd";
    case Technique::SmartRefresh: return "smart-refresh";
    case Technique::EccExtended: return "ecc-extended";
    case Technique::CacheDecay: return "cache-decay";
    case Technique::Esteem: return "esteem";
  }
  return "?";
}

/// True for the techniques that only schedule refreshes: they never
/// invalidate, resize or otherwise mutate the L2, so which lines hit, miss
/// and get evicted does not depend on them. Their runs differ only in
/// cycles, refreshes and energy (DESIGN.md §7, "Hierarchy and lanes").
constexpr bool refresh_only(Technique t) {
  switch (t) {
    case Technique::BaselinePeriodicAll:
    case Technique::PeriodicValid:
    case Technique::RefrintRPV:
    case Technique::SmartRefresh:
    case Technique::EccExtended:
      return true;
    case Technique::RefrintRPD:
    case Technique::CacheDecay:
    case Technique::Esteem:
      return false;
  }
  return false;
}

/// The stream predicate: runs under `cfg` of the same workload, seed and
/// budgets may share one reference stream, whatever their techniques. Each
/// reference is drawn once and handed to every run's hierarchy. It needs
/// one core (with two, the interleaving of the cores follows each run's own
/// timing), and neither sampling (its segment schedule follows timing
/// estimates) nor fault injection (a fault-on hierarchy holds a weak-cell
/// map of 1.0-1.5 MB, so several in one pass would multiply peak memory).
constexpr bool shares_stream(const SystemConfig& cfg) {
  return cfg.ncores == 1 && !cfg.sampling.enabled && !cfg.faults.enabled;
}

/// The fusion predicate: a run of `t` under `cfg` may also share one L1/L2
/// pass with the other refresh-only runs of its stream, one refresh lane
/// each. Every other technique mutates the L2 on its run's own clock, so
/// it needs a hierarchy of its own.
constexpr bool fusable(const SystemConfig& cfg, Technique t) {
  return refresh_only(t) && shares_stream(cfg);
}

}  // namespace esteem::cpu
