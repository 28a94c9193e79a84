// Metamorphic system tests: relations between two runs that must hold
// exactly whatever the absolute numbers are, so they check the simulator
// without a golden.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "edram/ecc.hpp"
#include "energy/cacti_table.hpp"
#include "sim/experiment.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"

namespace esteem::sim {
namespace {

// test_system's scaled-down configuration: 512 KB 8-way L2 (1024 sets),
// 8 KB L1s, 5 us retention (10k cycles), 100k-cycle intervals.
SystemConfig tiny() {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 100'000;
  cfg.esteem.sampling_ratio = 32;
  cfg.esteem.a_min = 2;
  cfg.validate();
  return cfg;
}

const std::vector<std::string> kWorkloads = {"bzip2", "mcf", "gamess", "astar"};

RunOutcome run(const SystemConfig& cfg, Technique technique, const std::string& workload) {
  RunSpec spec;
  spec.config = cfg;
  spec.technique = technique;
  spec.workload = {workload, {workload}};
  spec.instr_per_core = 300'000;
  spec.warmup_instr_per_core = 60'000;
  spec.seed = 42;
  return run_experiment(spec);
}

// A_min = ways leaves Algorithm 1 nothing to turn off, non-LRU modules
// included, so ESTEEM must degenerate to refreshing the valid lines of a
// fully-on cache: periodic-valid, bit for bit.
TEST(Metamorphic, EsteemWithAminEqualWaysIsPeriodicValid) {
  SystemConfig cfg = tiny();
  cfg.esteem.a_min = cfg.l2.geom.ways;
  for (const std::string& wl : kWorkloads) {
    SCOPED_TRACE(wl);
    const cpu::RawRunResult est = run(cfg, Technique::Esteem, wl).raw;
    const cpu::RawRunResult pv = run(cfg, Technique::PeriodicValid, wl).raw;
    EXPECT_EQ(est.counters.transitions, 0u);
    EXPECT_EQ(est.wall_cycles, pv.wall_cycles);
    EXPECT_EQ(est.refreshes, pv.refreshes);
    EXPECT_EQ(est.demand_misses, pv.demand_misses);
    EXPECT_EQ(est.ipc, pv.ipc);
    EXPECT_EQ(est.counters.seconds, pv.counters.seconds);
    EXPECT_EQ(est.counters.fa_seconds, pv.counters.fa_seconds);
    EXPECT_EQ(est.counters.l2_hits, pv.counters.l2_hits);
    EXPECT_EQ(est.counters.l2_misses, pv.counters.l2_misses);
    EXPECT_EQ(est.counters.refreshes, pv.counters.refreshes);
    EXPECT_EQ(est.counters.mm_accesses, pv.counters.mm_accesses);
    EXPECT_EQ(est.counters.transitions, pv.counters.transitions);
    EXPECT_EQ(est.counters.ecc_corrections, pv.counters.ecc_corrections);
  }
}

// [energy] refresh_scale multiplies the per-line refresh energy and nothing
// else: the run is unchanged, refresh energy doubles exactly (a power-of-two
// scale commutes with rounding) and every other component is bit-equal.
TEST(Metamorphic, RefreshEnergyScalesExactlyWithRefreshScale) {
  SystemConfig scaled_cfg = tiny();
  scaled_cfg.energy.refresh_scale = 2.0;
  for (const std::string& wl : kWorkloads) {
    SCOPED_TRACE(wl);
    const energy::EnergyBreakdown base = run(tiny(), Technique::RefrintRPV, wl).energy;
    const energy::EnergyBreakdown scaled = run(scaled_cfg, Technique::RefrintRPV, wl).energy;
    EXPECT_GT(base.refresh_l2_j, 0.0);
    EXPECT_EQ(scaled.refresh_l2_j, 2.0 * base.refresh_l2_j);
    EXPECT_EQ(scaled.leak_l2_j, base.leak_l2_j);
    EXPECT_EQ(scaled.dyn_l2_j, base.dyn_l2_j);
    EXPECT_EQ(scaled.ecc_l2_j, base.ecc_l2_j);
    EXPECT_EQ(scaled.mm_j, base.mm_j);
    EXPECT_EQ(scaled.algo_j, base.algo_j);
  }
}

// The baseline refreshes all L lines once per retention period, so halving
// the retention doubles the refresh count, up to one period's worth at each
// end of the measured window. With zero refresh occupancy, refresh cannot
// perturb timing, so the two runs must otherwise be the same run.
TEST(Metamorphic, PeriodicAllRefreshCountIsInverseInRetention) {
  SystemConfig cfg = tiny();
  cfg.l2.refresh_occupancy_cycles = 0.0;
  SystemConfig halved = cfg;
  halved.edram.retention_us = cfg.edram.retention_us / 2.0;
  ASSERT_EQ(2 * halved.retention_cycles(), cfg.retention_cycles());
  const auto lines = static_cast<std::int64_t>(cfg.l2.geom.lines());
  for (const std::string& wl : kWorkloads) {
    SCOPED_TRACE(wl);
    const cpu::RawRunResult r = run(cfg, Technique::BaselinePeriodicAll, wl).raw;
    const cpu::RawRunResult h = run(halved, Technique::BaselinePeriodicAll, wl).raw;
    EXPECT_EQ(r.wall_cycles, h.wall_cycles);
    EXPECT_EQ(r.demand_misses, h.demand_misses);
    const auto n_r = static_cast<std::int64_t>(r.refreshes);
    const auto n_h = static_cast<std::int64_t>(h.refreshes);
    EXPECT_GT(n_r, 0);
    EXPECT_EQ(n_r % lines, 0);
    EXPECT_EQ(n_h % lines, 0);
    const std::int64_t excess = n_h - 2 * n_r;
    EXPECT_TRUE(excess == -lines || excess == 0 || excess == lines)
        << "N_R(r/2) - 2 N_R(r) = " << excess << " with L = " << lines;
  }
}

// Energy oracle: recompute Eq. 4-8 from each run's raw counters and the
// Table 2 / §6.3 constants, independently of energy::compute_energy, for
// every cell of a small sweep. A [faults] row with ecc-extended makes the
// ECC correction term (one dynamic access per corrected read) non-zero and
// exercises the ECC storage-overhead scaling of leakage and access energy.
TEST(Metamorphic, EnergyComponentsMatchEquations) {
  constexpr double kNj = 1e-9;
  auto rel_eq = [](double got, double want) {
    return std::abs(got - want) <= 1e-12 * std::abs(want);
  };

  SweepSpec plain;
  plain.config = tiny();
  plain.workloads = {{"bzip2", {"bzip2"}}, {"mcf", {"mcf"}}};
  plain.techniques = {Technique::Esteem, Technique::RefrintRPV};
  plain.instr_per_core = 300'000;
  plain.warmup_instr_per_core = 60'000;
  plain.threads = 1;
  SweepSpec faulty = plain;
  faulty.config.faults.enabled = true;
  faulty.config.faults.sigma = 0.5;  // weak tail live at the chosen extension
  faulty.workloads = {{"gamess", {"gamess"}}};
  faulty.techniques = {Technique::EccExtended};

  std::uint64_t ecc_corrections = 0;
  for (const SweepSpec& spec : {plain, faulty}) {
    const SweepResult result = run_sweep(spec);
    ASSERT_TRUE(result.ok());
    const energy::L2EnergyParams table2 = energy::l2_energy_params(spec.config.l2.geom.size_bytes);
    for (std::size_t wi = 0; wi < spec.workloads.size(); ++wi) {
      double e_base = 0.0;
      for (std::size_t ti = 0; ti <= spec.techniques.size(); ++ti) {
        const Technique t =
            ti == 0 ? Technique::BaselinePeriodicAll : spec.techniques[ti - 1];
        SCOPED_TRACE(spec.workloads[wi].name + " " + std::string(to_string(t)));
        const RunOutcome& out =
            *run_experiment_cached(sweep_run_spec(spec, spec.workloads[wi], t));
        const energy::EnergyCounters& c = out.raw.counters;
        const EnergyScaleConfig& scale = spec.config.energy;

        double leak_w = table2.p_leak_watts;
        double e_dyn_j = table2.e_dyn_nj_per_access * kNj;
        if (t == Technique::EccExtended) {
          const double overhead = edram::ecc_storage_overhead(
              spec.config.l2.geom.line_bytes * 8, spec.config.edram.ecc_correctable);
          leak_w *= 1.0 + overhead;
          e_dyn_j *= 1.0 + overhead;
        }
        const double leak = leak_w * c.fa_seconds;                              // (4)
        const double dyn = e_dyn_j * (2.0 * static_cast<double>(c.l2_misses) +
                                      static_cast<double>(c.l2_hits));          // (5)
        const double refresh =
            static_cast<double>(c.refreshes) * scale.refresh_scale * e_dyn_j;   // (6)
        const double ecc = static_cast<double>(c.ecc_corrections) * e_dyn_j;
        const double mm = energy::kMmLeakWatts * c.seconds +
                          energy::kMmDynNjPerAccess * kNj *
                              static_cast<double>(c.mm_accesses);               // (7)
        const double algo =
            energy::kEChiNj * kNj * static_cast<double>(c.transitions);         // (8)
        const double total = leak + dyn + refresh + ecc + mm + algo;

        EXPECT_GT(leak, 0.0);
        EXPECT_GT(refresh, 0.0);
        EXPECT_PRED2(rel_eq, out.energy.leak_l2_j, leak);
        EXPECT_PRED2(rel_eq, out.energy.dyn_l2_j, dyn);
        EXPECT_PRED2(rel_eq, out.energy.refresh_l2_j, refresh);
        EXPECT_PRED2(rel_eq, out.energy.ecc_l2_j, ecc);
        EXPECT_PRED2(rel_eq, out.energy.mm_j, mm);
        EXPECT_PRED2(rel_eq, out.energy.algo_j, algo);
        EXPECT_PRED2(rel_eq, out.energy.total_j(), total);
        ecc_corrections += c.ecc_corrections;

        if (ti == 0) {
          e_base = total;
        } else {
          EXPECT_NEAR(result.rows[wi].comparisons[ti - 1].energy_saving_pct,
                      100.0 * (1.0 - total / e_base), 1e-9);
        }
      }
    }
  }
  EXPECT_GT(ecc_corrections, 0u);
}

}  // namespace
}  // namespace esteem::sim
