#include "service/wire.hpp"

#include <stdexcept>

#include "common/bytes.hpp"
#include "common/config_io.hpp"
#include "sim/run_cache.hpp"

namespace esteem::service {

namespace {

void write_comparison(ByteWriter& w, const sim::TechniqueComparison& c) {
  w.str(c.workload);
  w.u32(static_cast<std::uint32_t>(c.technique));
  w.f64(c.energy_saving_pct);
  w.f64(c.weighted_speedup);
  w.f64(c.fair_speedup);
  w.f64(c.rpki_base);
  w.f64(c.rpki_tech);
  w.f64(c.rpki_decrease);
  w.f64(c.mpki_base);
  w.f64(c.mpki_tech);
  w.f64(c.mpki_increase);
  w.f64(c.active_ratio_pct);
  w.u64(c.ecc_corrected_reads);
  w.u64(c.fault_refetches);
  w.u64(c.fault_data_loss);
  w.u64(c.fault_disabled_lines);
  w.f64(c.correction_rpki);
  w.u8(c.sampled ? 1 : 0);
  w.f64(c.energy_saving_ci);
  w.f64(c.weighted_speedup_ci);
  w.f64(c.rpki_tech_ci);
  w.f64(c.mpki_tech_ci);
  w.f64(c.active_ratio_ci);
}

bool read_comparison(ByteReader& rd, sim::TechniqueComparison& c) {
  std::uint32_t technique = 0;
  std::uint8_t sampled = 0;
  // The cell codec is not versioned by itself: the service header's wire
  // version and sweep hash already pin the binary that wrote it.
  const bool ok = rd.str(c.workload) && rd.u32(technique) &&
                  rd.f64(c.energy_saving_pct) && rd.f64(c.weighted_speedup) &&
                  rd.f64(c.fair_speedup) && rd.f64(c.rpki_base) &&
                  rd.f64(c.rpki_tech) && rd.f64(c.rpki_decrease) &&
                  rd.f64(c.mpki_base) && rd.f64(c.mpki_tech) &&
                  rd.f64(c.mpki_increase) && rd.f64(c.active_ratio_pct) &&
                  rd.u64(c.ecc_corrected_reads) && rd.u64(c.fault_refetches) &&
                  rd.u64(c.fault_data_loss) && rd.u64(c.fault_disabled_lines) &&
                  rd.f64(c.correction_rpki) && rd.u8(sampled) &&
                  rd.f64(c.energy_saving_ci) && rd.f64(c.weighted_speedup_ci) &&
                  rd.f64(c.rpki_tech_ci) && rd.f64(c.mpki_tech_ci) &&
                  rd.f64(c.active_ratio_ci);
  if (ok) {
    c.technique = static_cast<sim::Technique>(technique);
    c.sampled = sampled != 0;
  }
  return ok;
}

}  // namespace

std::string encode_sweep_spec(const sim::SweepSpec& spec) {
  ByteWriter w;
  w.u32(kWireVersion);
  write_config_bytes(w, spec.config, ConfigScope::All);
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
  if (!read_config_bytes(r, out.config)) return false;
  // Refuse any config validate() rejects, so a worker never starts on bytes
  // that would throw once it builds a System.
  try {
    out.config.validate();
  } catch (const std::invalid_argument&) {
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

std::uint64_t sweep_fingerprint_hash(const sim::SweepSpec& spec) {
  // Reuse the RunSpec fingerprint for the config/seed/budget part (an empty
  // workload contributes nothing workload-specific), then append the
  // technique list: two sweeps differing only in workloads hash equal.
  sim::RunSpec rs;
  rs.config = spec.config;
  rs.technique = sim::Technique::BaselinePeriodicAll;
  rs.seed = spec.seed;
  rs.instr_per_core = spec.instr_per_core;
  rs.warmup_instr_per_core = spec.warmup_instr_per_core;
  ByteWriter w;
  w.str(sim::run_spec_fingerprint(rs));
  w.u64(spec.techniques.size());
  for (sim::Technique t : spec.techniques) w.u32(static_cast<std::uint32_t>(t));
  return sim::fingerprint_hash(w.take());
}

std::string encode_comparisons(const std::vector<sim::TechniqueComparison>& comparisons) {
  ByteWriter w;
  w.u64(comparisons.size());
  for (const sim::TechniqueComparison& c : comparisons) write_comparison(w, c);
  return w.take();
}

bool decode_comparisons(const std::string& bytes, std::size_t n_techniques,
                        std::vector<sim::TechniqueComparison>& out) {
  ByteReader rd(bytes);
  std::uint64_t n = 0;
  if (!rd.u64(n) || n != n_techniques) return false;
  std::vector<sim::TechniqueComparison> cs(n);
  for (sim::TechniqueComparison& c : cs) {
    if (!read_comparison(rd, c)) return false;
  }
  if (!rd.done()) return false;
  out = std::move(cs);
  return true;
}

}  // namespace esteem::service
