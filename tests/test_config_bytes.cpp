// Tests for the config field table: the memo key (run_spec_fingerprint) and
// the INI both derive from it, so every field must reach exactly the forms
// its section's classification says.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/config_io.hpp"
#include "sim/run_cache.hpp"
#include "validation/scale.hpp"

namespace esteem {
namespace {

// Every field set to a distinct non-default value, so a codec that drops,
// reorders or swaps two fields of the same type moves the pinned hash.
// The two line sizes differ on purpose (a valid system needs them equal):
// the memo key never validates, and distinct values catch an L1/L2 swap.
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
  c.esteem.alpha = 0.91;
  c.esteem.a_min = 4;
  c.esteem.modules = 16;
  c.esteem.interval_cycles = 123'457;
  c.esteem.sampling_ratio = 33;
  c.esteem.nonlru_guard = false;
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
  return c;
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

// The constant was taken from the encoder before the config codec was
// derived from the field table; memo files written since then (and so
// --journal resume) depend on these bytes not moving. It moved once, when
// the [energy] dyn_scale/leak_scale and [esteem] min_leader_samples fields
// were retired: their slots now hold the defaults, not this config's
// distinct values (DefaultMemoKeysArePinned shows default keys stayed put).
TEST(ConfigBytes, MemoKeyIsPinned) {
  const SystemConfig cfg = distinct_config();
  const std::uint64_t key = sim::fingerprint_hash(sim::run_spec_fingerprint(distinct_run(cfg)));
  EXPECT_EQ(key, 0x2ead87f55844aec7ULL);
}

// The memo keys of ESTEEM runs under the default configurations: the keys
// users' --journal directories hold. A change that only retires a field into
// a RetiredSlot holding its default must leave all six in place.
TEST(ConfigBytes, DefaultMemoKeysArePinned) {
  const auto key = [](const SystemConfig& cfg, instr_t instr, instr_t warmup) {
    sim::RunSpec spec;
    spec.config = cfg;
    spec.technique = sim::Technique::Esteem;
    spec.workload = cfg.ncores == 1 ? trace::Workload{"gamess", {"gamess"}}
                                    : trace::Workload{"gobmk+namd", {"gobmk", "namd"}};
    spec.seed = 42;
    spec.instr_per_core = instr;
    spec.warmup_instr_per_core = warmup;
    return sim::fingerprint_hash(sim::run_spec_fingerprint(spec));
  };
  const auto scaled = [&](SystemConfig (*make)(const validation::ScaleSpec&, double),
                          const validation::ScaleSpec& s) {
    return key(make(s, 1.0), s.instr_per_core, s.warmup_per_core);
  };
  const validation::ScaleSpec smoke = validation::smoke_scale();
  const validation::ScaleSpec bench = validation::bench_scale();
  EXPECT_EQ(key(SystemConfig::single_core(), 400'000'000, 80'000'000), 0xc4c2d76f85e567b6ULL);
  EXPECT_EQ(key(SystemConfig::dual_core(), 400'000'000, 80'000'000), 0xbb86f2f94dcf7d20ULL);
  EXPECT_EQ(scaled(validation::scaled_single, smoke), 0x7d30ba2dfba85688ULL);
  EXPECT_EQ(scaled(validation::scaled_dual, smoke), 0x9cadce0b35e5ab4cULL);
  EXPECT_EQ(scaled(validation::scaled_single, bench), 0xdae611cc34f84f53ULL);
  EXPECT_EQ(scaled(validation::scaled_dual, bench), 0x59ff262ab939048fULL);
}

// The pin config made runnable: a valid system has one line size.
SystemConfig valid_distinct_config() {
  SystemConfig c = distinct_config();
  c.l1.geom.line_bytes = c.l2.geom.line_bytes;
  return c;
}

// Every field of the table equal in `a` and `b` (doubles bit for bit).
bool same_fields(SystemConfig a, SystemConfig b) {
  for (const ConfigField& f : config_fields()) {
    const bool same = std::visit(
        [&](auto access) {
          if constexpr (std::is_same_v<decltype(access), RetiredSlot>) {
            return true;
          } else if constexpr (std::is_same_v<decltype(access), FieldRef<double>>) {
            return std::bit_cast<std::uint64_t>(access(a)) ==
                   std::bit_cast<std::uint64_t>(access(b));
          } else {
            return access(a) == access(b);
          }
        },
        f.access);
    if (!same) return false;
  }
  return true;
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

// Walks the field table: every live field is in the memo key, and every
// field with a key survives the INI exactly. This is what makes
// docs/CONFIG.md's "every key is part of the memo-cache fingerprint" true
// by construction.
TEST(ConfigBytes, EveryFieldIsClassifiedAndRoundTrips) {
  const SystemConfig base = valid_distinct_config();
  ASSERT_TRUE(is_valid(base));
  const std::string base_key = sim::run_spec_fingerprint(distinct_run(base));
  std::stringstream base_ini;
  save_config(base, base_ini);
  for (const ConfigField& f : config_fields()) {
    if (std::holds_alternative<RetiredSlot>(f.access)) continue;
    SCOPED_TRACE(std::string(f.section) + "." + std::string(f.key.empty() ? f.doc : f.key));
    const Perturbed p = perturb(base, f);
    ASSERT_FALSE(same_fields(p.cfg, base));
    // Only a field with no INI key may be unable to change on its own
    // (L1's line size must equal L2's).
    if (!f.key.empty()) {
      EXPECT_TRUE(p.valid);
    }

    EXPECT_NE(sim::run_spec_fingerprint(distinct_run(p.cfg)), base_key);

    if (p.valid && !f.key.empty()) {
      std::stringstream ini;
      save_config(p.cfg, ini);
      EXPECT_NE(ini.str(), base_ini.str());
      EXPECT_TRUE(same_fields(load_config(ini), p.cfg));
    }
  }
}

}  // namespace
}  // namespace esteem
