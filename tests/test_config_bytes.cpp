// Tests for the byte forms of a SystemConfig: the memo key
// (run_spec_fingerprint), the service wire (encode_sweep_spec) and the sweep
// identity hash, all derived from the config field table.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/bytes.hpp"
#include "common/config_io.hpp"
#include "service/wire.hpp"
#include "sim/run_cache.hpp"

namespace esteem {
namespace {

// Every field set to a distinct non-default value, so a codec that drops,
// reorders or swaps two fields of the same type moves the pinned hashes.
// The two line sizes differ on purpose (a valid system needs them equal):
// the byte forms never validate, and distinct values catch an L1/L2 swap.
SystemConfig distinct_config() {
  SystemConfig c;
  c.ncores = 3;
  c.freq_ghz = 2.25;
  c.l1.geom = CacheGeometry{64ULL * 1024, 8, 32};
  c.l1.latency_cycles = 5;
  c.l2.geom = CacheGeometry{2ULL * 1024 * 1024, 32, 128};
  c.l2.latency_cycles = 13;
  c.l2.banks = 8;
  c.l2.access_occupancy_cycles = 6;
  c.l2.refresh_occupancy_cycles = 4.5;
  c.l2.queue_pressure = 1.75;
  c.mem.latency_cycles = 230;
  c.mem.bandwidth_gbps = 12.5;
  c.edram.retention_us = 45.5;
  c.edram.rpv_phases = 7;
  c.edram.ecc_correctable = 9;
  c.edram.ecc_target_line_failure = 2e-10;
  c.energy.refresh_scale = 1.125;
  c.energy.dyn_scale = 1.25;
  c.energy.leak_scale = 1.375;
  c.esteem.alpha = 0.91;
  c.esteem.a_min = 4;
  c.esteem.modules = 16;
  c.esteem.interval_cycles = 123'457;
  c.esteem.sampling_ratio = 33;
  c.esteem.nonlru_guard = false;
  c.esteem.min_leader_samples = 17;
  c.esteem.history_weight = 0.625;
  c.esteem.max_way_delta = 19;
  c.esteem.hysteresis_intervals = 21;
  c.esteem.shrink_confirm_intervals = 23;
  c.faults.enabled = true;
  c.faults.seed = 0xABCDEF12345ULL;
  c.faults.median_multiple = 24.5;
  c.faults.sigma = 0.45;
  c.faults.correction_latency_cycles = 27;
  c.faults.disable_threshold = 29;
  c.faults.max_tracked_extension = 31;
  c.sampling.enabled = true;
  c.sampling.window_instr = 50'001;
  c.sampling.detail_warm_instr = 10'003;
  c.sampling.ff_warm_instr = 200'005;
  c.sampling.cold_warm_instr = 2'000'007;
  c.sampling.period_instr = 5'000'011;
  c.resilience.run_deadline_ms = 37;
  c.resilience.max_retries = 39;
  c.resilience.backoff_ms = 41;
  c.resilience.max_consecutive_errors = 43;
  c.service.lease_ttl_ms = 47'000;
  c.service.heartbeat_ms = 53;
  c.service.poll_ms = 59;
  c.service.lock_mode = "lockfile";
  c.observability.flush_ms = 61;
  c.observability.events_max = 67;
  c.observability.metrics_path = "m/x.om";
  return c;
}

sim::SweepSpec distinct_sweep(const SystemConfig& cfg) {
  sim::SweepSpec spec;
  spec.config = cfg;
  spec.workloads = {{"gamess", {"gamess"}}, {"gobmk+namd", {"gobmk", "namd"}}};
  spec.techniques = {sim::Technique::Esteem, sim::Technique::RefrintRPV};
  spec.seed = 71;
  spec.instr_per_core = 73'000;
  spec.warmup_instr_per_core = 79'000;
  spec.threads = 1;
  return spec;
}

sim::RunSpec distinct_run(const SystemConfig& cfg) {
  sim::RunSpec spec;
  spec.config = cfg;
  spec.technique = sim::Technique::Esteem;
  spec.workload = {"gobmk+namd", {"gobmk", "namd"}};
  spec.seed = 71;
  spec.instr_per_core = 73'000;
  spec.warmup_instr_per_core = 79'000;
  return spec;
}

// The constants were taken from the encoders before the config codec was
// derived from the field table; memo files and service journals written
// since then depend on these bytes not moving.
TEST(ConfigBytes, WireAndKeyArePinned) {
  const SystemConfig cfg = distinct_config();
  const std::uint64_t key = sim::fingerprint_hash(sim::run_spec_fingerprint(distinct_run(cfg)));
  const std::uint64_t wire = fnv1a(kFnv1aBasis, service::encode_sweep_spec(distinct_sweep(cfg)));
  const std::uint64_t sweep = service::sweep_fingerprint_hash(distinct_sweep(cfg));
  EXPECT_EQ(key, 0x280ecdb8830248b4ULL);
  EXPECT_EQ(wire, 0xadf81eb7ac3e5be9ULL);
  EXPECT_EQ(sweep, 0x55204242b029610dULL);
}

// The pin config made runnable: a valid system has one line size.
SystemConfig valid_distinct_config() {
  SystemConfig c = distinct_config();
  c.l1.geom.line_bytes = c.l2.geom.line_bytes;
  return c;
}

std::string all_bytes(const SystemConfig& c) {
  ByteWriter w;
  write_config_bytes(w, c, ConfigScope::All);
  return w.take();
}

bool is_valid(const SystemConfig& c) {
  try {
    c.validate();
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

// Changed values to try for one field, in order of preference.
template <class T>
std::vector<T> perturbations(const T& v) {
  if constexpr (std::is_same_v<T, bool>) return {!v};
  else if constexpr (std::is_same_v<T, double>) return {v * 2, v / 2};
  // service.lock_mode takes only "append" or "lockfile".
  else if constexpr (std::is_same_v<T, std::string>) return {v + "x", "append"};
  else return {static_cast<T>(v * 2), static_cast<T>(v + 1)};
}

struct Perturbed {
  SystemConfig cfg;
  bool valid = false;  ///< validate() accepts cfg.
};

// `base` with field `f` changed, as an INI set would change it (running the
// field's ini_also), preferring a change that validate() accepts.
Perturbed perturb(const SystemConfig& base, const ConfigField& f) {
  std::vector<SystemConfig> tries;
  std::visit(
      [&](auto access) {
        if constexpr (!std::is_same_v<decltype(access), RetiredSlot>) {
          SystemConfig probe = base;
          for (const auto& v : perturbations(access(probe))) {
            SystemConfig c = base;
            access(c) = v;
            if (f.ini_also) f.ini_also(c);
            tries.push_back(c);
          }
        }
      },
      f.access);
  for (const SystemConfig& c : tries) {
    if (is_valid(c)) return {c, true};
  }
  return {tries.front(), false};
}

// Walks the field table: every field is in the wire, exactly the semantic
// ones are in the memo key, and every field survives the wire and (when it
// has a key) the INI. This is what makes docs/CONFIG.md's "semantic keys are
// part of the memo fingerprint" true by construction.
TEST(ConfigBytes, EveryFieldIsClassifiedAndRoundTrips) {
  const SystemConfig base = valid_distinct_config();
  ASSERT_TRUE(is_valid(base));
  const std::string base_key = sim::run_spec_fingerprint(distinct_run(base));
  const std::string base_wire = service::encode_sweep_spec(distinct_sweep(base));
  for (const ConfigField& f : config_fields()) {
    if (std::holds_alternative<RetiredSlot>(f.access)) continue;
    SCOPED_TRACE(std::string(f.section) + "." + std::string(f.key.empty() ? f.doc : f.key));
    const Perturbed p = perturb(base, f);
    // Only a field with no INI key may be unable to change on its own
    // (L1's line size must equal L2's).
    if (!f.key.empty()) {
      EXPECT_TRUE(p.valid);
    }

    const bool semantic = !config_section_is_execution_policy(f.section);
    EXPECT_EQ(sim::run_spec_fingerprint(distinct_run(p.cfg)) != base_key, semantic);
    const std::string wire = service::encode_sweep_spec(distinct_sweep(p.cfg));
    EXPECT_NE(wire, base_wire);

    const std::string bytes = all_bytes(p.cfg);
    ByteReader r(bytes);
    SystemConfig decoded;
    ASSERT_TRUE(read_config_bytes(r, decoded) && r.done());
    EXPECT_EQ(all_bytes(decoded), bytes);
    if (std::holds_alternative<FieldRef<bool>>(f.access)) {
      // A bool is one byte, 0 or 1; decode refuses any other.
      const std::string base_bytes = all_bytes(base);
      const auto at = std::mismatch(bytes.begin(), bytes.end(), base_bytes.begin()).first;
      std::string bad = bytes;
      bad[static_cast<std::size_t>(at - bytes.begin())] = 2;
      ByteReader bad_reader(bad);
      EXPECT_FALSE(read_config_bytes(bad_reader, decoded));
    }
    sim::SweepSpec out;
    EXPECT_EQ(service::decode_sweep_spec(wire, out), p.valid);
    if (p.valid) {
      EXPECT_EQ(service::encode_sweep_spec(out), wire);
    }

    if (p.valid && !f.key.empty()) {
      std::stringstream ini;
      save_config(p.cfg, ini);
      EXPECT_EQ(all_bytes(load_config(ini)), bytes);
    }
  }
  // Policy sections trail the table, so the memo key's config part is a
  // prefix of the wire's.
  ByteWriter semantic;
  write_config_bytes(semantic, base, ConfigScope::Semantic);
  const std::string prefix = semantic.take();
  EXPECT_EQ(all_bytes(base).substr(0, prefix.size()), prefix);
}

TEST(ConfigBytes, RetiredDecaySlotAcceptsOnlyItsConstant) {
  const std::string wire = service::encode_sweep_spec(distinct_sweep(valid_distinct_config()));
  ByteWriter slot;
  slot.f64(kDecayIntervalRetentions);
  const std::string eight = slot.take();
  const std::size_t at = wire.find(eight);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(wire.find(eight, at + 1), std::string::npos);

  sim::SweepSpec out;
  EXPECT_TRUE(service::decode_sweep_spec(wire, out));
  ByteWriter other;
  other.f64(4.0);
  std::string moved = wire;
  moved.replace(at, eight.size(), other.take());
  EXPECT_FALSE(service::decode_sweep_spec(moved, out));
}

TEST(ConfigBytes, DecodeRefusesConfigsValidateRejects) {
  sim::SweepSpec spec = distinct_sweep(valid_distinct_config());
  sim::SweepSpec out;
  ASSERT_TRUE(service::decode_sweep_spec(service::encode_sweep_spec(spec), out));
  spec.config.ncores = 0;
  EXPECT_THROW(spec.config.validate(), std::invalid_argument);
  EXPECT_FALSE(service::decode_sweep_spec(service::encode_sweep_spec(spec), out));
}

}  // namespace
}  // namespace esteem
