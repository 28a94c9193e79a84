#include "common/config.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace esteem {

SystemConfig SystemConfig::single_core() {
  SystemConfig cfg;  // struct defaults are the single-core paper setup
  return cfg;
}

SystemConfig SystemConfig::dual_core() {
  SystemConfig cfg;
  cfg.ncores = 2;
  cfg.l2.geom.size_bytes = 8ULL * 1024 * 1024;
  cfg.mem.bandwidth_gbps = 15.0;
  cfg.esteem.modules = 16;
  return cfg;
}

namespace {
void require(bool ok, const std::string& what) {
  if (!ok) throw std::invalid_argument("SystemConfig: " + what);
}
}  // namespace

void SystemConfig::validate() const {
  require(ncores >= 1, "ncores must be >= 1");
  require(freq_ghz > 0.0, "frequency must be positive");

  require(l1.geom.line_bytes == l2.geom.line_bytes,
          "L1 and L2 must share a line size");
  for (const CacheGeometry& g : {l1.geom, l2.geom}) {
    require(g.line_bytes > 0 && is_pow2(g.line_bytes), "line size must be a power of two");
    require(g.ways >= 1, "associativity must be >= 1");
    require(g.ways <= kMaxWays,
            "associativity must be <= " + std::to_string(kMaxWays) + " ways");
    require(g.size_bytes % (static_cast<std::uint64_t>(g.ways) * g.line_bytes) == 0,
            "cache size must be a multiple of ways*line");
    require(g.sets() >= 1, "cache must have at least one set");
    require(is_pow2(g.sets()), "set count must be a power of two");
  }

  require(l2.banks >= 1 && is_pow2(l2.banks), "bank count must be a power of two >= 1");
  require(l2.geom.sets() >= l2.banks, "more banks than sets");
  require(l2.access_occupancy_cycles >= 1, "access occupancy must be >= 1");
  require(l2.refresh_occupancy_cycles >= 0.0, "refresh occupancy must be >= 0");
  require(l2.queue_pressure >= 0.0, "queue pressure must be >= 0");

  require(edram.retention_us > 0.0, "retention period must be positive");
  require(edram.rpv_phases >= 1, "RPV needs at least one phase");
  require(edram.rpv_phases <= kMaxRpvPhases, "RPV supports at most 256 phases");
  require(retention_cycles() >= edram.rpv_phases,
          "retention must span at least one cycle per phase");

  require(mem.latency_cycles > 0, "memory latency must be positive");
  require(mem.bandwidth_gbps > 0.0, "memory bandwidth must be positive");

  require(energy.refresh_scale > 0.0, "energy refresh scale must be positive");

  require(esteem.alpha > 0.0 && esteem.alpha <= 1.0, "alpha must be in (0,1]");
  require(esteem.a_min >= 1, "A_min must be >= 1");
  require(esteem.a_min <= l2.geom.ways, "A_min must not exceed associativity");
  require(esteem.modules >= 1, "module count must be >= 1");
  require(l2.geom.sets() % esteem.modules == 0,
          "module count must divide the set count");
  require(esteem.sampling_ratio >= 1, "sampling ratio must be >= 1");
  require(esteem.history_weight >= 0.0 && esteem.history_weight < 1.0,
          "history weight must be in [0,1)");

  if (sampling.enabled) {
    require(sampling.window_instr >= 1, "sampling window must be >= 1 instruction");
    require(sampling.period_instr > sampling.window_instr +
                                        sampling.detail_warm_instr +
                                        sampling.ff_warm_instr,
            "sampling period must exceed window + warm segments");
  }

  require(faults.median_multiple > 0.0, "fault median multiple must be positive");
  require(faults.sigma > 0.0, "fault sigma must be positive");
  require(faults.disable_threshold >= 1, "fault disable threshold must be >= 1");
  require(faults.max_tracked_extension >= 1 &&
              faults.max_tracked_extension <= kMaxTrackedExtension,
          "fault max tracked extension must be in [1, " +
              std::to_string(kMaxTrackedExtension) + "]");
}

cycle_t scaled_interval(const SystemConfig& cfg, instr_t instr, double env_factor,
                        double interval_factor) {
  const auto cycles =
      static_cast<cycle_t>(kPaperIntervalCycles * env_factor * interval_factor *
                           static_cast<double>(instr) / static_cast<double>(kPaperInstrPerCore));
  return std::max<cycle_t>(cycles, cfg.retention_cycles());
}

void apply_scaled_interval(SystemConfig& cfg, instr_t instr, double env_factor,
                           double interval_factor) {
  apply_paper_scaled_interval(cfg);
  cfg.esteem.interval_cycles = scaled_interval(cfg, instr, env_factor, interval_factor);
}

void apply_paper_scaled_interval(SystemConfig& cfg) {
  cfg.esteem.interval_cycles = kPaperScaledInterval;
  cfg.esteem.hysteresis_intervals = kScaledHysteresis;
  cfg.esteem.shrink_confirm_intervals = kScaledShrinkConfirm;
}

void resolve_interval(SystemConfig& cfg, instr_t instr) {
  if (cfg.esteem.interval_cycles == kPaperScaledInterval) {
    cfg.esteem.interval_cycles = scaled_interval(cfg, instr);
  }
}

}  // namespace esteem
