#include "validation/scale.hpp"

#include <cstdio>
#include <sstream>

#include "sim/runner.hpp"

namespace esteem::validation {

ScaleSpec bench_scale() {
  ScaleSpec s;
  s.label = "bench";
  s.instr_per_core = 8'000'000;
  s.warmup_per_core = 1'600'000;
  s.seed = 42;
  s.interval_env_factor = kIntervalEnvFactor;
  s.threads = 0;
  return s;
}

ScaleSpec smoke_scale() {
  ScaleSpec s;
  s.label = "smoke";
  s.instr_per_core = 300'000;
  s.warmup_per_core = 60'000;
  s.seed = 42;
  s.interval_env_factor = kIntervalEnvFactor;
  s.threads = 0;
  return s;
}

ScaleSpec paper_scale() {
  ScaleSpec s;
  s.label = "paper";
  s.instr_per_core = kPaperInstrPerCore;
  s.warmup_per_core = kPaperInstrPerCore / 5;
  s.seed = 42;
  // The interval is already the paper's 10M cycles at this instruction count;
  // no synthetic-IPC compensation is layered on top.
  s.interval_env_factor = 1.0;
  s.threads = 0;
  s.sampling.enabled = true;
  s.sampling.window_instr = 40'000;
  s.sampling.detail_warm_instr = 10'000;
  s.sampling.ff_warm_instr = 200'000;
  s.sampling.cold_warm_instr = 2'000'000;
  s.sampling.period_instr = 4'000'000;  // 100 windows per 400M instructions
  return s;
}

std::string scale_fingerprint(const ScaleSpec& scale) {
  std::ostringstream os;
  os << "v1;instr=" << scale.instr_per_core << ";warmup=" << scale.warmup_per_core
     << ";seed=" << scale.seed << ";ifactor=" << scale.interval_env_factor
     << ";hyst=" << kScaledHysteresis << ";shrink=" << kScaledShrinkConfirm;
  // Appended only when sampling is on, so the exhaustive tiers' golden keys
  // (recorded before sampling existed) stay valid.
  if (scale.sampling.enabled) {
    os << ";sampling=" << scale.sampling.window_instr << '/'
       << scale.sampling.detail_warm_instr << '/' << scale.sampling.ff_warm_instr
       << '/' << scale.sampling.cold_warm_instr << '/' << scale.sampling.period_instr;
  }
  return os.str();
}

namespace {

SystemConfig apply_scale(SystemConfig cfg, const ScaleSpec& scale,
                         double interval_factor) {
  apply_scaled_interval(cfg, scale.instr_per_core, scale.interval_env_factor,
                        interval_factor);
  cfg.sampling = scale.sampling;
  return cfg;
}

}  // namespace

SystemConfig scaled_single(const ScaleSpec& scale, double interval_factor) {
  return apply_scale(SystemConfig::single_core(), scale, interval_factor);
}

SystemConfig scaled_dual(const ScaleSpec& scale, double interval_factor) {
  return apply_scale(SystemConfig::dual_core(), scale, interval_factor);
}

std::string scale_banner(const std::string& what, const SystemConfig& cfg,
                         instr_t instr, unsigned threads) {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "%s\n  scale: %llu instructions/core (paper: 400M), interval %llu cycles "
      "(paper: 10M), retention %.0f us, %u-core, L2 %.0f MB %u-way, %u modules, "
      "%u sweep worker thread(s)\n\n",
      what.c_str(), static_cast<unsigned long long>(instr),
      static_cast<unsigned long long>(cfg.esteem.interval_cycles),
      cfg.edram.retention_us, cfg.ncores,
      static_cast<double>(cfg.l2.geom.size_bytes) / (1024.0 * 1024.0),
      cfg.l2.geom.ways, cfg.esteem.modules,
      sim::resolve_threads(threads));
  return buf;
}

}  // namespace esteem::validation
