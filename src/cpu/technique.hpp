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

/// The fusion predicate: a run of `t` under `cfg` may share one L1/L2 pass
/// with other runs of the same config, workload, seed and budgets. It needs
/// a refresh-only technique and one core (with two, the interleaving of the
/// cores follows each run's own timing), and neither sampling (its segment
/// schedule follows timing estimates) nor fault injection (its epochs
/// mutate the L2 on the run's own clock).
constexpr bool fusable(const SystemConfig& cfg, Technique t) {
  return refresh_only(t) && cfg.ncores == 1 && !cfg.sampling.enabled &&
         !cfg.faults.enabled;
}

}  // namespace esteem::cpu
