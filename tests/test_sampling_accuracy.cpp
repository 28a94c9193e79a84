// Pinned-accuracy gate for the systematic-sampling executor (ISSUE 9
// acceptance, docs/SAMPLING.md §Validation): on every figure workload the
// sampled estimate ± its reported CI (plus the documented non-sampling bias
// allowance) must bracket the exhaustive value, and the technique orderings
// must agree (Spearman >= 0.95).
//
// This runs full exhaustive simulations at bench scale (8M instructions per
// core), so it is registered under the `sampling` ctest configuration
// (`ctest -C sampling`) rather than the default tier-1 set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"

namespace esteem::sim {
namespace {

constexpr instr_t kInstr = 8'000'000;
constexpr instr_t kWarmup = 1'600'000;

/// Non-sampling bias allowance, in absolute energy-saving percentage points,
/// added to the statistical CI when bracketing (docs/SAMPLING.md: warming
/// ramps and the CPI-estimated clock contribute systematic error the
/// Student-t interval cannot see).
constexpr double kBiasAllowancePct = 2.0;

SweepSpec bench_spec(bool sampled) {
  // The CLI's paper-default policy for a single-core sweep at this length:
  // interval scaled to the shortened run.
  SystemConfig cfg = SystemConfig::single_core();
  apply_scaled_interval(cfg, kInstr);
  if (sampled) {
    cfg.sampling.enabled = true;
    cfg.sampling.window_instr = 40'000;
    cfg.sampling.detail_warm_instr = 10'000;
    cfg.sampling.ff_warm_instr = 200'000;
    cfg.sampling.cold_warm_instr = 2'000'000;
    // 16 windows over 8M instructions: at bench scale the noisy streaming
    // workloads (soplex, milc) need this many samples for their ordering to
    // stabilise; at paper scale the default 4M period yields 100 windows.
    cfg.sampling.period_instr = 500'000;
  }

  SweepSpec spec;
  spec.config = cfg;
  // Figure workloads spanning the behaviour space: cache-resident (gamess,
  // povray), mid-size (gobmk), streaming (milc, lbm), oversized (soplex).
  for (const char* w : {"gamess", "gobmk", "povray", "milc", "soplex", "lbm"}) {
    spec.workloads.push_back({w, {w}});
  }
  spec.techniques = {Technique::Esteem, Technique::RefrintRPV};
  spec.instr_per_core = kInstr;
  spec.warmup_instr_per_core = kWarmup;
  return spec;
}

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  auto ranks = [](const std::vector<double>& v) {
    std::vector<std::size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0u);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t i, std::size_t j) { return v[i] < v[j]; });
    std::vector<double> r(v.size());
    for (std::size_t pos = 0; pos < idx.size(); ++pos) {
      r[idx[pos]] = static_cast<double>(pos);
    }
    return r;
  };
  const std::vector<double> ra = ranks(a);
  const std::vector<double> rb = ranks(b);
  double d2 = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  }
  const double n = static_cast<double>(ra.size());
  return 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
}

TEST(SamplingAccuracy, SampledBracketsExhaustiveAndOrderingsAgree) {
  const SweepResult exhaustive = run_sweep(bench_spec(/*sampled=*/false));
  ASSERT_TRUE(exhaustive.ok());
  // Different fingerprints (sampling is keyed), but clear anyway so the
  // sampled leg cannot alias anything from this process's history.
  RunCache::instance().clear();
  const SweepResult sampled = run_sweep(bench_spec(/*sampled=*/true));
  ASSERT_TRUE(sampled.ok());

  ASSERT_EQ(exhaustive.rows.size(), sampled.rows.size());
  std::vector<double> es_exh;
  std::vector<double> es_samp;
  for (std::size_t w = 0; w < exhaustive.rows.size(); ++w) {
    const WorkloadRow& re = exhaustive.rows[w];
    const WorkloadRow& rs = sampled.rows[w];
    ASSERT_EQ(re.comparisons.size(), rs.comparisons.size());
    for (std::size_t t = 0; t < re.comparisons.size(); ++t) {
      const TechniqueComparison& e = re.comparisons[t];
      const TechniqueComparison& s = rs.comparisons[t];
      ASSERT_TRUE(s.sampled);
      es_exh.push_back(e.energy_saving_pct);
      es_samp.push_back(s.energy_saving_pct);

      const double diff = std::abs(e.energy_saving_pct - s.energy_saving_pct);
      EXPECT_LE(diff, s.energy_saving_ci + kBiasAllowancePct)
          << re.workload << "/" << to_string(s.technique)
          << ": exhaustive " << e.energy_saving_pct << " vs sampled "
          << s.energy_saving_pct << " ± " << s.energy_saving_ci;

      const double sp_diff = std::abs(e.weighted_speedup - s.weighted_speedup);
      EXPECT_LE(sp_diff, s.weighted_speedup_ci + 0.05)
          << re.workload << "/" << to_string(s.technique)
          << ": exhaustive speedup " << e.weighted_speedup << " vs sampled "
          << s.weighted_speedup << " ± " << s.weighted_speedup_ci;
    }
  }
  EXPECT_GE(spearman(es_exh, es_samp), 0.95);
}

}  // namespace
}  // namespace esteem::sim
