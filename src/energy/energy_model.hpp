// Memory-subsystem energy model: paper §6.3, equations (2)-(8).
//
//   E      = E_L2 + E_MM + E_Algo                                   (2)
//   E_L2   = LE_L2 + DE_L2 + RE_L2                                  (3)
//   LE_L2  = P_L2^leak * F_A * T                                    (4)
//   DE_L2  = E_L2^dyn * (2*M_L2 + H_L2)                             (5)
//   RE_L2  = N_R * E_L2^dyn                                         (6)
//   E_MM   = P_MM^leak * T + E_MM^dyn * A_MM                        (7)
//   E_Algo = E_chi * N_L                                            (8)
//
// An L2 miss consumes twice the dynamic energy of a hit; L2 leakage scales
// with the active fraction of the cache; refreshing a line costs the same
// energy as accessing it.
#pragma once

#include <cstdint>

#include "energy/cacti_table.hpp"

namespace esteem::energy {

/// Counter snapshot for one measurement window (an interval or a whole run).
struct EnergyCounters {
  double seconds = 0.0;            ///< T: wall-clock span of the window.
  double fa_seconds = 0.0;         ///< Integral of F_A over the window
                                   ///< (== seconds when the cache is fully on).
  std::uint64_t l2_hits = 0;       ///< H_L2
  std::uint64_t l2_misses = 0;     ///< M_L2
  std::uint64_t refreshes = 0;     ///< N_R (lines refreshed)
  std::uint64_t mm_accesses = 0;   ///< A_MM (fills + writebacks)
  std::uint64_t transitions = 0;   ///< N_L (blocks power-gated on/off)
  std::uint64_t ecc_corrections = 0;  ///< Reads that exercised ECC correction
                                      ///< (fault injection; 0 otherwise).

  EnergyCounters& operator+=(const EnergyCounters& o);
};

struct EnergyBreakdown {
  double leak_l2_j = 0.0;
  double dyn_l2_j = 0.0;
  double refresh_l2_j = 0.0;
  double ecc_l2_j = 0.0;  ///< ECC correction passes (decode + rewrite),
                          ///< charged one dynamic access each.
  double mm_j = 0.0;
  double algo_j = 0.0;

  double l2_j() const noexcept {
    return leak_l2_j + dyn_l2_j + refresh_l2_j + ecc_l2_j;
  }
  double total_j() const noexcept { return l2_j() + mm_j + algo_j; }
};

struct EnergyModelParams {
  L2EnergyParams l2;
  double mm_dyn_nj = kMmDynNjPerAccess;
  double mm_leak_w = kMmLeakWatts;
  double e_chi_nj = kEChiNj;
  /// Calibration multiplier (EnergyScaleConfig): per-line refresh energy
  /// relative to the Table 2 value.
  double refresh_scale = 1.0;
};

/// Evaluates equations (2)-(8) over one counter window.
EnergyBreakdown compute_energy(const EnergyModelParams& params,
                               const EnergyCounters& counters);

/// Percentage energy saved by `technique` relative to `baseline` (metric 1,
/// §6.4). Positive = saving.
double percent_energy_saving(const EnergyBreakdown& baseline,
                             const EnergyBreakdown& technique);

}  // namespace esteem::energy
