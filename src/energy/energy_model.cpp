#include "energy/energy_model.hpp"

namespace esteem::energy {

EnergyCounters& EnergyCounters::operator+=(const EnergyCounters& o) {
  seconds += o.seconds;
  fa_seconds += o.fa_seconds;
  l2_hits += o.l2_hits;
  l2_misses += o.l2_misses;
  refreshes += o.refreshes;
  mm_accesses += o.mm_accesses;
  transitions += o.transitions;
  ecc_corrections += o.ecc_corrections;
  return *this;
}

EnergyBreakdown compute_energy(const EnergyModelParams& params,
                               const EnergyCounters& c) {
  constexpr double kNj = 1e-9;
  EnergyBreakdown e;
  e.leak_l2_j = params.l2.p_leak_watts * c.fa_seconds;                        // (4)
  e.dyn_l2_j = params.l2.e_dyn_nj_per_access * kNj *
               (2.0 * static_cast<double>(c.l2_misses) + static_cast<double>(c.l2_hits));  // (5)
  e.refresh_l2_j = static_cast<double>(c.refreshes) * params.refresh_scale *
                   params.l2.e_dyn_nj_per_access * kNj;                       // (6)
  e.ecc_l2_j = static_cast<double>(c.ecc_corrections) *
               params.l2.e_dyn_nj_per_access * kNj;  // correction pass
  e.mm_j = params.mm_leak_w * c.seconds +
           params.mm_dyn_nj * kNj * static_cast<double>(c.mm_accesses);       // (7)
  e.algo_j = params.e_chi_nj * kNj * static_cast<double>(c.transitions);      // (8)
  return e;
}

double percent_energy_saving(const EnergyBreakdown& baseline,
                             const EnergyBreakdown& technique) {
  const double base = baseline.total_j();
  if (base <= 0.0) return 0.0;
  return 100.0 * (base - technique.total_j()) / base;
}

}  // namespace esteem::energy
