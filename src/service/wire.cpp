#include "service/wire.hpp"

#include <stdexcept>

#include "common/bytes.hpp"

namespace esteem::service {

namespace {

void put_config(ByteWriter& w, const SystemConfig& c) {
  w.u32(c.ncores);
  w.f64(c.freq_ghz);
  w.u64(c.l1.geom.size_bytes);
  w.u32(c.l1.geom.ways);
  w.u32(c.l1.geom.line_bytes);
  w.u32(c.l1.latency_cycles);
  w.u64(c.l2.geom.size_bytes);
  w.u32(c.l2.geom.ways);
  w.u32(c.l2.geom.line_bytes);
  w.u32(c.l2.latency_cycles);
  w.u32(c.l2.banks);
  w.u32(c.l2.access_occupancy_cycles);
  w.f64(c.l2.refresh_occupancy_cycles);
  w.f64(c.l2.queue_pressure);
  w.u32(c.mem.latency_cycles);
  w.f64(c.mem.bandwidth_gbps);
  w.f64(c.edram.retention_us);
  w.u32(c.edram.rpv_phases);
  w.u32(c.edram.ecc_correctable);
  w.f64(c.edram.ecc_target_line_failure);
  w.f64(c.edram.decay_interval_retentions);
  w.f64(c.energy.refresh_scale);
  w.f64(c.energy.dyn_scale);
  w.f64(c.energy.leak_scale);
  w.f64(c.esteem.alpha);
  w.u32(c.esteem.a_min);
  w.u32(c.esteem.modules);
  w.u64(c.esteem.interval_cycles);
  w.u32(c.esteem.sampling_ratio);
  w.u8(c.esteem.nonlru_guard ? 1 : 0);
  w.u64(c.esteem.min_leader_samples);
  w.f64(c.esteem.history_weight);
  w.u32(c.esteem.max_way_delta);
  w.u32(c.esteem.hysteresis_intervals);
  w.u32(c.esteem.shrink_confirm_intervals);
  w.u8(c.faults.enabled ? 1 : 0);
  w.u64(c.faults.seed);
  w.f64(c.faults.median_multiple);
  w.f64(c.faults.sigma);
  w.u32(c.faults.correction_latency_cycles);
  w.u32(c.faults.disable_threshold);
  w.u32(c.faults.max_tracked_extension);
  w.u8(c.sampling.enabled ? 1 : 0);
  w.u64(c.sampling.window_instr);
  w.u64(c.sampling.detail_warm_instr);
  w.u64(c.sampling.ff_warm_instr);
  w.u64(c.sampling.cold_warm_instr);
  w.u64(c.sampling.period_instr);
  w.u32(c.resilience.run_deadline_ms);
  w.u32(c.resilience.max_retries);
  w.u32(c.resilience.backoff_ms);
  w.u32(c.resilience.max_consecutive_errors);
  w.u32(c.service.lease_ttl_ms);
  w.u32(c.service.heartbeat_ms);
  w.u32(c.service.poll_ms);
  w.str(c.service.lock_mode);
  w.u32(c.observability.flush_ms);
  w.u32(c.observability.events_max);
  w.str(c.observability.metrics_path);
}

bool get_bool(ByteReader& r, bool& v) {
  std::uint8_t b = 0;
  if (!r.u8(b) || b > 1) return false;
  v = b != 0;
  return true;
}

bool get_config(ByteReader& r, SystemConfig& c) {
  return r.u32(c.ncores) && r.f64(c.freq_ghz) && r.u64(c.l1.geom.size_bytes) &&
         r.u32(c.l1.geom.ways) && r.u32(c.l1.geom.line_bytes) && r.u32(c.l1.latency_cycles) &&
         r.u64(c.l2.geom.size_bytes) && r.u32(c.l2.geom.ways) && r.u32(c.l2.geom.line_bytes) &&
         r.u32(c.l2.latency_cycles) && r.u32(c.l2.banks) && r.u32(c.l2.access_occupancy_cycles) &&
         r.f64(c.l2.refresh_occupancy_cycles) && r.f64(c.l2.queue_pressure) &&
         r.u32(c.mem.latency_cycles) && r.f64(c.mem.bandwidth_gbps) &&
         r.f64(c.edram.retention_us) && r.u32(c.edram.rpv_phases) &&
         r.u32(c.edram.ecc_correctable) && r.f64(c.edram.ecc_target_line_failure) &&
         r.f64(c.edram.decay_interval_retentions) && r.f64(c.energy.refresh_scale) &&
         r.f64(c.energy.dyn_scale) && r.f64(c.energy.leak_scale) && r.f64(c.esteem.alpha) &&
         r.u32(c.esteem.a_min) && r.u32(c.esteem.modules) && r.u64(c.esteem.interval_cycles) &&
         r.u32(c.esteem.sampling_ratio) && get_bool(r, c.esteem.nonlru_guard) &&
         r.u64(c.esteem.min_leader_samples) && r.f64(c.esteem.history_weight) &&
         r.u32(c.esteem.max_way_delta) && r.u32(c.esteem.hysteresis_intervals) &&
         r.u32(c.esteem.shrink_confirm_intervals) && get_bool(r, c.faults.enabled) &&
         r.u64(c.faults.seed) && r.f64(c.faults.median_multiple) && r.f64(c.faults.sigma) &&
         r.u32(c.faults.correction_latency_cycles) && r.u32(c.faults.disable_threshold) &&
         r.u32(c.faults.max_tracked_extension) && get_bool(r, c.sampling.enabled) &&
         r.u64(c.sampling.window_instr) && r.u64(c.sampling.detail_warm_instr) &&
         r.u64(c.sampling.ff_warm_instr) && r.u64(c.sampling.cold_warm_instr) &&
         r.u64(c.sampling.period_instr) && r.u32(c.resilience.run_deadline_ms) &&
         r.u32(c.resilience.max_retries) && r.u32(c.resilience.backoff_ms) &&
         r.u32(c.resilience.max_consecutive_errors) &&
         r.u32(c.service.lease_ttl_ms) && r.u32(c.service.heartbeat_ms) &&
         r.u32(c.service.poll_ms) &&
         r.str(c.service.lock_mode) &&
         r.u32(c.observability.flush_ms) && r.u32(c.observability.events_max) &&
         r.str(c.observability.metrics_path);
}

}  // namespace

std::string encode_sweep_spec(const sim::SweepSpec& spec) {
  ByteWriter w;
  w.u32(kWireVersion);
  put_config(w, spec.config);
  w.u64(spec.workloads.size());
  for (const auto& wl : spec.workloads) {
    w.str(wl.name);
    w.u64(wl.benchmarks.size());
    for (const auto& b : wl.benchmarks) w.str(b);
  }
  w.u64(spec.techniques.size());
  for (const auto t : spec.techniques) w.str(std::string(to_string(t)));
  w.u64(spec.seed);
  w.u64(spec.instr_per_core);
  w.u64(spec.warmup_instr_per_core);
  return w.take();
}

bool decode_sweep_spec(const std::string& bytes, sim::SweepSpec& out) {
  ByteReader r(bytes);
  std::uint32_t version = 0;
  if (!r.u32(version) || version != kWireVersion) return false;
  out = sim::SweepSpec{};
  if (!get_config(r, out.config)) return false;
  // Enum-like string fields must hold a known value, or a later
  // SystemConfig::validate() would throw on bytes decode() accepted.
  if (out.config.service.lock_mode != "append" &&
      out.config.service.lock_mode != "lockfile") {
    return false;
  }
  std::uint64_t n_workloads = 0;
  if (!r.u64(n_workloads)) return false;
  out.workloads.clear();
  // Counts come off the wire unvalidated; every element below costs at
  // least one byte, so a count larger than the remaining payload is
  // already garbage. Checking here keeps a flipped length byte from
  // turning reserve() into a multi-gigabyte allocation (totality pinned
  // by the wire fuzz test).
  if (n_workloads > bytes.size()) return false;
  out.workloads.reserve(n_workloads);
  for (std::uint64_t i = 0; i < n_workloads; ++i) {
    trace::Workload wl;
    std::uint64_t n_bench = 0;
    if (!r.str(wl.name) || !r.u64(n_bench)) return false;
    if (n_bench > bytes.size()) return false;
    wl.benchmarks.reserve(n_bench);
    for (std::uint64_t j = 0; j < n_bench; ++j) {
      std::string b;
      if (!r.str(b)) return false;
      wl.benchmarks.push_back(std::move(b));
    }
    out.workloads.push_back(std::move(wl));
  }
  std::uint64_t n_tech = 0;
  if (!r.u64(n_tech)) return false;
  out.techniques.clear();
  if (n_tech > bytes.size()) return false;
  out.techniques.reserve(n_tech);
  for (std::uint64_t i = 0; i < n_tech; ++i) {
    std::string label;
    if (!r.str(label)) return false;
    try {
      out.techniques.push_back(sim::parse_technique(label));
    } catch (const std::invalid_argument&) {
      return false;
    }
  }
  if (!r.u64(out.seed) || !r.u64(out.instr_per_core) || !r.u64(out.warmup_instr_per_core)) {
    return false;
  }
  // Workers evaluate one leased cell at a time; the coordinator's thread
  // count is not part of the sweep's identity.
  out.threads = 1;
  return r.done();
}

}  // namespace esteem::service
