// Tests for the INI config loader/saver.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/bytes.hpp"
#include "common/config_io.hpp"

namespace esteem {
namespace {

TEST(ConfigIo, RoundTripsDefaults) {
  const SystemConfig original = SystemConfig::dual_core();
  std::stringstream ss;
  save_config(original, ss);
  const SystemConfig loaded = load_config(ss);

  EXPECT_EQ(loaded.ncores, original.ncores);
  EXPECT_EQ(loaded.l2.geom.size_bytes, original.l2.geom.size_bytes);
  EXPECT_EQ(loaded.l2.geom.ways, original.l2.geom.ways);
  EXPECT_EQ(loaded.l2.banks, original.l2.banks);
  EXPECT_DOUBLE_EQ(loaded.l2.refresh_occupancy_cycles,
                   original.l2.refresh_occupancy_cycles);
  EXPECT_DOUBLE_EQ(loaded.edram.retention_us, original.edram.retention_us);
  EXPECT_DOUBLE_EQ(loaded.mem.bandwidth_gbps, original.mem.bandwidth_gbps);
  EXPECT_DOUBLE_EQ(loaded.esteem.alpha, original.esteem.alpha);
  EXPECT_EQ(loaded.esteem.a_min, original.esteem.a_min);
  EXPECT_EQ(loaded.esteem.modules, original.esteem.modules);
  EXPECT_EQ(loaded.esteem.interval_cycles, original.esteem.interval_cycles);
  EXPECT_EQ(loaded.esteem.nonlru_guard, original.esteem.nonlru_guard);
  EXPECT_DOUBLE_EQ(loaded.esteem.history_weight, original.esteem.history_weight);
}

TEST(ConfigIo, PaperScaledIntervalStoresTheRule) {
  SystemConfig rule = SystemConfig::single_core();
  apply_paper_scaled_interval(rule);
  std::stringstream out;
  save_config(rule, out);
  EXPECT_NE(out.str().find("\ninterval_cycles = paper-scaled\n"), std::string::npos);
  const SystemConfig loaded = load_config(out);
  EXPECT_EQ(loaded.esteem.interval_cycles, kPaperScaledInterval);
  EXPECT_EQ(loaded.esteem.hysteresis_intervals, kScaledHysteresis);

  // 0 has only the word as its spelling, and only this key takes the word.
  for (const char* ini : {"[esteem]\ninterval_cycles = 0\n",
                          "[esteem]\ninterval_cycles = 00\n",
                          "[esteem]\na_min = paper-scaled\n"}) {
    std::stringstream ss(ini);
    EXPECT_THROW(load_config(ss), std::invalid_argument) << ini;
  }
  std::stringstream number("[esteem]\ninterval_cycles = 100000\n");
  EXPECT_EQ(load_config(number).esteem.interval_cycles, 100'000u);
}

TEST(ConfigIo, PartialConfigKeepsDefaults) {
  std::stringstream ss("[l2]\nsize_kb = 2048\n[esteem]\nalpha = 0.95\n");
  const SystemConfig cfg = load_config(ss);
  EXPECT_EQ(cfg.l2.geom.size_bytes, 2048ULL * 1024);
  EXPECT_DOUBLE_EQ(cfg.esteem.alpha, 0.95);
  // Untouched keys stay at the paper defaults.
  EXPECT_EQ(cfg.l2.geom.ways, 16u);
  EXPECT_EQ(cfg.esteem.a_min, 3u);
}

TEST(ConfigIo, RoundTripsFaultsSection) {
  SystemConfig original;
  original.faults.enabled = true;
  original.faults.seed = 1234;
  original.faults.median_multiple = 24.0;
  original.faults.sigma = 0.5;
  original.faults.correction_latency_cycles = 7;
  original.faults.disable_threshold = 2;
  original.faults.max_tracked_extension = 12;

  std::stringstream ss;
  save_config(original, ss);
  EXPECT_NE(ss.str().find("[faults]"), std::string::npos);
  const SystemConfig loaded = load_config(ss);
  EXPECT_TRUE(loaded.faults.enabled);
  EXPECT_EQ(loaded.faults.seed, 1234u);
  EXPECT_DOUBLE_EQ(loaded.faults.median_multiple, 24.0);
  EXPECT_DOUBLE_EQ(loaded.faults.sigma, 0.5);
  EXPECT_EQ(loaded.faults.correction_latency_cycles, 7u);
  EXPECT_EQ(loaded.faults.disable_threshold, 2u);
  EXPECT_EQ(loaded.faults.max_tracked_extension, 12u);
}

TEST(ConfigIo, ValidatesFaultsSection) {
  {
    std::stringstream ss("[faults]\nsigma = 0\n");
    EXPECT_THROW(load_config(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("[faults]\nmedian_multiple = -1\n");
    EXPECT_THROW(load_config(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("[faults]\ndisable_threshold = 0\n");
    EXPECT_THROW(load_config(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("[faults]\nmax_tracked_extension = 0\n");
    EXPECT_THROW(load_config(ss), std::invalid_argument);
  }
}

TEST(ConfigIo, IgnoresCommentsAndBlankLines) {
  std::stringstream ss(
      "# a comment\n\n; another\n[esteem]\n  a_min = 2  \n# trailing\n");
  EXPECT_EQ(load_config(ss).esteem.a_min, 2u);
}

TEST(ConfigIo, RejectsUnknownKey) {
  std::stringstream ss("[esteem]\nalfa = 0.97\n");
  EXPECT_THROW(load_config(ss), std::invalid_argument);
}

TEST(ConfigIo, RejectsUnknownSection) {
  std::stringstream ss("[l3]\nsize_kb = 1024\n");
  EXPECT_THROW(load_config(ss), std::invalid_argument);
}

// Dumps from older builds carry retired sections: [service] and
// [observability] from the sweep service, [resilience] from the run
// watchdog and retry policy. The strict loader refuses them like any
// unknown key.
TEST(ConfigIo, RejectsRetiredSections) {
  for (const char* ini : {"[service]\npoll_ms = 500\n",
                          "[observability]\nevents_max = 256\n",
                          "[resilience]\nmax_retries = 0\n"}) {
    std::stringstream ss(ini);
    EXPECT_THROW(load_config(ss), ConfigParseError) << ini;
  }
}

// Keys whose fields were retired into constant memo-key slots: a dump that
// still sets one is refused with the key and its line, like any unknown key.
TEST(ConfigIo, RejectsRetiredKeys) {
  for (const std::string key : {"energy.dyn_scale", "energy.leak_scale",
                                 "esteem.min_leader_samples"}) {
    const auto dot = key.find('.');
    std::stringstream ss("# old dump\n[" + key.substr(0, dot) + "]\n" +
                         key.substr(dot + 1) + " = 1\n");
    try {
      load_config(ss);
      ADD_FAILURE() << key << " accepted";
    } catch (const ConfigParseError& e) {
      EXPECT_EQ(e.line(), 3u);
      EXPECT_EQ(e.key(), key);
      const std::string what = e.what();
      EXPECT_NE(what.find(key), std::string::npos);
      EXPECT_NE(what.find("line 3"), std::string::npos);
    }
  }
}

TEST(ConfigIo, RejectsMalformedLines) {
  {
    std::stringstream ss("[esteem\nalpha = 0.97\n");
    EXPECT_THROW(load_config(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("[esteem]\nalpha 0.97\n");
    EXPECT_THROW(load_config(ss), std::invalid_argument);
  }
  {
    std::stringstream ss("[esteem]\nalpha = zero\n");
    EXPECT_THROW(load_config(ss), std::invalid_argument);
  }
}

TEST(ConfigIo, ValidatesLoadedValues) {
  // Parses fine but fails SystemConfig::validate (A_min > ways).
  std::stringstream ss("[esteem]\na_min = 99\n");
  EXPECT_THROW(load_config(ss), std::invalid_argument);
}

TEST(ConfigIo, ParseErrorsCarryLineNumbers) {
  {
    std::stringstream ss("[esteem\nalpha = 0.97\n");
    try {
      load_config(ss);
      FAIL() << "unterminated section header accepted";
    } catch (const ConfigParseError& e) {
      EXPECT_EQ(e.line(), 1u);
      EXPECT_EQ(e.key(), "");
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
    }
  }
  {
    std::stringstream ss("# banner\n[esteem]\nalpha 0.97\n");
    try {
      load_config(ss);
      FAIL() << "missing '=' accepted";
    } catch (const ConfigParseError& e) {
      EXPECT_EQ(e.line(), 3u);
      EXPECT_NE(std::string(e.what()).find("key=value"), std::string::npos);
    }
  }
  {
    std::stringstream ss("[esteem]\nalfa = 0.97\n");
    try {
      load_config(ss);
      FAIL() << "unknown key accepted";
    } catch (const ConfigParseError& e) {
      EXPECT_EQ(e.line(), 2u);
      EXPECT_EQ(e.key(), "esteem.alfa");
    }
  }
  {
    // Bad values name the key, the offending value, and the line.
    std::stringstream ss("[esteem]\n\nalpha = fast\n");
    try {
      load_config(ss);
      FAIL() << "non-numeric value accepted";
    } catch (const ConfigParseError& e) {
      EXPECT_EQ(e.line(), 3u);
      EXPECT_EQ(e.key(), "esteem.alpha");
      const std::string what = e.what();
      EXPECT_NE(what.find("'fast'"), std::string::npos);
      EXPECT_NE(what.find("line 3"), std::string::npos);
    }
  }
}

TEST(ConfigIo, RejectsDuplicateKey) {
  std::stringstream ss("[esteem]\nalpha = 0.9\nalpha = 0.95\n");
  try {
    load_config(ss);
    FAIL() << "duplicate key accepted";
  } catch (const ConfigParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_EQ(e.key(), "esteem.alpha");
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST(ConfigIo, ParseErrorIsAnInvalidArgument) {
  // Pre-hardening call sites catch std::invalid_argument; the richer error
  // must keep satisfying them.
  std::stringstream ss("[esteem]\nalfa = 1\n");
  EXPECT_THROW(load_config(ss), std::invalid_argument);
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(load_config_file("/nonexistent/esteem.ini"), std::invalid_argument);
}

TEST(ConfigIo, LineBytesAppliesToBothLevels) {
  std::stringstream ss("[l2]\nline_bytes = 128\nsize_kb = 4096\n[l1]\nsize_kb = 32\n");
  const SystemConfig cfg = load_config(ss);
  EXPECT_EQ(cfg.l1.geom.line_bytes, 128u);
  EXPECT_EQ(cfg.l2.geom.line_bytes, 128u);
}

// save_config(SystemConfig::single_core()) in the earlier section order,
// [edram] before [mem]. Key order is free, so such dumps still load.
constexpr const char* kEdramBeforeMemDump = R"([system]
ncores = 1
freq_ghz = 2

[l1]
size_kb = 32
ways = 4
latency = 2

[l2]
size_kb = 4096
ways = 16
line_bytes = 64
latency = 12
banks = 4
access_occupancy = 4
refresh_occupancy = 4
queue_pressure = 2

[edram]
retention_us = 50
rpv_phases = 4
ecc_correctable = 4
ecc_target_line_failure = 1e-09

[mem]
latency = 220
bandwidth_gbps = 10

[energy]
refresh_scale = 1

[esteem]
alpha = 0.97
a_min = 3
modules = 8
interval_cycles = 10000000
sampling_ratio = 64
nonlru_guard = true
history_weight = 0.75
max_way_delta = 0
hysteresis_intervals = 0
shrink_confirm_intervals = 0

[faults]
enabled = false
seed = 60844
median_multiple = 32
sigma = 0.35
correction_latency = 3
disable_threshold = 3
max_tracked_extension = 16

[sampling]
enabled = false
window_instr = 40000
detail_warm_instr = 10000
ff_warm_instr = 200000
cold_warm_instr = 2000000
period_instr = 4000000
)";

TEST(ConfigIo, LoadsDumpsWithEdramBeforeMem) {
  std::stringstream ss(kEdramBeforeMemDump);
  const auto bytes = [](const SystemConfig& c) {
    ByteWriter w;
    write_config_bytes(w, c);
    return w.take();
  };
  EXPECT_EQ(bytes(load_config(ss)), bytes(SystemConfig::single_core()));
}

}  // namespace
}  // namespace esteem
