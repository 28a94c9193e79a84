// Unit tests for src/common: rng, stats, config, table, csv, env, types.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/csv.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace esteem {
namespace {

TEST(Types, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(4096));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(4097));
}

TEST(Types, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(4096), 12u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000003ULL}) {
    for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversSmallRange) {
  Rng rng(9);
  std::array<int, 4> seen{};
  for (int i = 0; i < 4000; ++i) ++seen[rng.below(4)];
  for (int count : seen) EXPECT_GT(count, 800);  // roughly uniform
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Stats, MeanGeomeanStddev) {
  const std::vector<double> xs{1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0 / 3.0);
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
  EXPECT_NEAR(stddev(xs), std::sqrt((16.0 / 9 + 1.0 / 9 + 25.0 / 9) / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, MinMax) {
  const std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_of(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 7.0);
}

TEST(Stats, RunningStat) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(-6.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -6.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Stats, Histogram) {
  Histogram h(4);
  h.add(0);
  h.add(1, 5);
  h.add(3);
  h.add(99);  // out of range: ignored
  EXPECT_EQ(h.at(0), 1u);
  EXPECT_EQ(h.at(1), 5u);
  EXPECT_EQ(h.at(2), 0u);
  EXPECT_EQ(h.at(3), 1u);
  EXPECT_EQ(h.total(), 7u);
  h.clear();
  EXPECT_EQ(h.total(), 0u);
}

TEST(Config, PaperDefaultsSingleCore) {
  const SystemConfig cfg = SystemConfig::single_core();
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.ncores, 1u);
  EXPECT_EQ(cfg.l2.geom.size_bytes, 4ULL * 1024 * 1024);
  EXPECT_EQ(cfg.l2.geom.ways, 16u);
  EXPECT_EQ(cfg.l2.geom.sets(), 4096u);
  EXPECT_EQ(cfg.l2.latency_cycles, 12u);
  EXPECT_EQ(cfg.l1.geom.size_bytes, 32ULL * 1024);
  EXPECT_EQ(cfg.l1.latency_cycles, 2u);
  EXPECT_EQ(cfg.mem.latency_cycles, 220u);
  EXPECT_DOUBLE_EQ(cfg.mem.bandwidth_gbps, 10.0);
  EXPECT_DOUBLE_EQ(cfg.esteem.alpha, 0.97);
  EXPECT_EQ(cfg.esteem.a_min, 3u);
  EXPECT_EQ(cfg.esteem.modules, 8u);
  EXPECT_EQ(cfg.esteem.sampling_ratio, 64u);
  // 50 us at 2 GHz = 100k cycles.
  EXPECT_EQ(cfg.retention_cycles(), 100'000u);
}

TEST(Config, PaperDefaultsDualCore) {
  const SystemConfig cfg = SystemConfig::dual_core();
  EXPECT_NO_THROW(cfg.validate());
  EXPECT_EQ(cfg.ncores, 2u);
  EXPECT_EQ(cfg.l2.geom.size_bytes, 8ULL * 1024 * 1024);
  EXPECT_DOUBLE_EQ(cfg.mem.bandwidth_gbps, 15.0);
  EXPECT_EQ(cfg.esteem.modules, 16u);
}

TEST(Config, MemServiceCycles) {
  const SystemConfig cfg = SystemConfig::single_core();
  // 64 B at 10 GB/s and 2 GHz: 5 bytes/cycle -> 12.8 cycles per line.
  EXPECT_NEAR(cfg.mem_service_cycles(), 12.8, 1e-12);
}

TEST(Config, ValidationRejectsBadParameters) {
  auto broken = [] { return SystemConfig::single_core(); };
  {
    auto cfg = broken();
    cfg.esteem.a_min = 0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    auto cfg = broken();
    cfg.esteem.a_min = cfg.l2.geom.ways + 1;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    auto cfg = broken();
    cfg.esteem.alpha = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    auto cfg = broken();
    cfg.esteem.modules = 3;  // does not divide 4096
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    auto cfg = broken();
    cfg.l2.banks = 3;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    auto cfg = broken();
    cfg.edram.retention_us = 0.0;
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
  {
    auto cfg = broken();
    cfg.l1.geom.line_bytes = 32;  // mismatched line sizes
    EXPECT_THROW(cfg.validate(), std::invalid_argument);
  }
}

TEST(Config, ValidationBoundsRpvPhases) {
  // Refrint phase tags are one byte per slot: 256 phases fit, 257 do not.
  auto cfg = SystemConfig::single_core();
  cfg.edram.rpv_phases = kMaxRpvPhases;
  EXPECT_NO_THROW(cfg.validate());
  cfg.edram.rpv_phases = kMaxRpvPhases + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.edram.rpv_phases = 300;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Table, AlignsAndSeparates) {
  TextTable t;
  t.set_header({"name", "value"});
  t.add_row({"alpha", "0.97"});
  t.add_separator();
  t.add_row({"average", "1.09"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("0.97"), std::string::npos);
  EXPECT_NE(s.find("average"), std::string::npos);
  // Header rule + separator + top/bottom rules = at least 4 rules.
  std::size_t rules = 0;
  std::istringstream is(s);
  for (std::string line; std::getline(is, line);) rules += line.starts_with('+');
  EXPECT_GE(rules, 4u);
}

TEST(Table, Fmt) {
  EXPECT_EQ(fmt(1.2345, 2), "1.23");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt_bytes(4ULL * 1024 * 1024), "4MB");
  EXPECT_EQ(fmt_bytes(32ULL * 1024), "32KB");
  EXPECT_EQ(fmt_bytes(100), "100B");
}

TEST(Csv, EscapesSpecialCells) {
  const std::string path = "test_csv_out.csv";
  {
    CsvWriter csv(path);
    csv.write_row({"a,b", "plain", "with \"quote\""});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "\"a,b\",plain,\"with \"\"quote\"\"\"");
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// common/json

TEST(Json, EscapeParseRoundTripsEveryByte) {
  std::string all;
  for (int c = 1; c < 256; ++c) all += static_cast<char>(c);
  all += '\0';
  const std::string quoted = '"' + json::escape(all) + '"';
  EXPECT_EQ(json::parse(quoted).as_string(), all);
  // Quotes, backslashes and control bytes are escaped; the short forms win.
  EXPECT_EQ(json::escape("a\\b\"c\n\t\r"), "a\\\\b\\\"c\\n\\t\\r");
  EXPECT_EQ(json::escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
  EXPECT_EQ(json::escape("plain/utf8 \xc3\xa9"), "plain/utf8 \xc3\xa9");
  // Foreign escapes decode too, surrogate pairs to UTF-8.
  EXPECT_EQ(json::parse(R"("\/\b\f\u00e9\ud83d\ude00")").as_string(),
            "/\b\f\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double v : {1.0 / 3.0, 0.1, -7.02e-17, 1.2345678901234567e18, 123456789.123456789,
                         5e-324, std::numeric_limits<double>::max(), -0.0, 0.0}) {
    const double back = json::parse(json::number(v)).as_f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back), std::bit_cast<std::uint64_t>(v))
        << json::number(v);
  }
  EXPECT_TRUE(std::isinf(json::parse(json::number(HUGE_VAL)).as_f64()));
  EXPECT_TRUE(std::isnan(json::parse(json::number(std::nan(""))).as_f64()));

  // A u64 above 2^53 keeps its raw token, so it survives exactly.
  const std::uint64_t big = 0x8000000000000001ULL;
  const json::Value v = json::parse("[" + std::to_string(big) + "]").as_array()[0];
  EXPECT_EQ(v.text(), "9223372036854775809");
  EXPECT_EQ(v.as_u64(), big);
  EXPECT_NE(static_cast<std::uint64_t>(v.as_f64()), big);
  EXPECT_THROW((void)json::parse("1.5").as_u64(), json::Error);
  EXPECT_THROW((void)json::parse("\"1\"").as_f64(), json::Error);
}

TEST(Json, ObjectKeyOrderIsPreserved) {
  const json::Value v = json::parse(R"({"z":1, "a":[true,false,null], "m":{"k":"v"}, "a":2})");
  ASSERT_TRUE(v.is_object());
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v.key(0), "z");
  EXPECT_EQ(v.key(1), "a");
  EXPECT_EQ(v.key(2), "m");
  EXPECT_EQ(v.key(3), "a");
  EXPECT_EQ(v.at("a").size(), 3u);  // find() returns the first duplicate
  EXPECT_TRUE(v.at("a").item(0).boolean());
  EXPECT_EQ(v.at("a").item(2).kind(), json::Value::Kind::kNull);
  EXPECT_EQ(v.at("m").at("k").as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), json::Error);
  EXPECT_THROW((void)v.at("z").at("x"), json::Error);
}

TEST(Json, RejectsTruncatedTrailingAndBadInput) {
  const std::string doc = R"({"a":[1,2.5e-3,"x\n"],"b":{"c":-0.5}})";
  ASSERT_NO_THROW((void)json::parse(doc));
  for (std::size_t n = 0; n < doc.size(); ++n) {
    EXPECT_THROW((void)json::parse(doc.substr(0, n)), json::Error) << doc.substr(0, n);
  }
  for (const char* bad :
       {"{} x", "{}{}", "[1,]", "{\"a\"}", "{\"a\":1,}", "{a:1}", "\"\\x\"", "\"\\u12\"",
        "\"\\ud800\"", "\"\\udc00\"", "\"tab\there\"", "01", "1.", "+1", ".5", "0x10", "1e",
        "inf1", "tru", "nul", "[1 2]"}) {
    EXPECT_THROW((void)json::parse(bad), json::Error) << bad;
  }
  // Deep nesting is refused instead of exhausting the stack.
  EXPECT_THROW((void)json::parse(std::string(10000, '[')), json::Error);
  EXPECT_NO_THROW((void)json::parse(std::string(64, '[') + std::string(64, ']')));
}

// Totality: parse never crashes, hangs or accepts a value it cannot render
// back to an equal tree, over deterministic byte mutations of a real line.
TEST(Json, ParseIsTotalOverMutatedBytes) {
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  const std::string line =
      R"({"cycle":100,"ratio":0.33333333333333331,"s":"a\"b\u0001","xs":[1,[2,{}]],"t":true})";
  std::size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string m = line;
    for (int e = 0, edits = 1 + static_cast<int>(next() % 3); e < edits; ++e) {
      switch (next() % 3) {
        case 0: m[next() % m.size()] = static_cast<char>(next() & 0xFF); break;
        case 1: m.resize(next() % (m.size() + 1)); break;
        default:
          m.insert(m.begin() + static_cast<std::ptrdiff_t>(next() % (m.size() + 1)),
                   static_cast<char>(next() & 0xFF));
      }
      if (m.empty()) m.push_back('x');  // = "x" trips GCC 12's false -Wrestrict
    }
    json::Value v;
    try {
      v = json::parse(m);
    } catch (const json::Error&) {
      continue;
    }
    ++accepted;
    if (v.is_string()) {
      EXPECT_EQ(json::parse('"' + json::escape(v.text()) + '"').text(), v.text());
    }
  }
  EXPECT_GT(accepted, 0u);  // Some mutants (e.g. changed digits) stay valid.
}

TEST(Json, StrictTokenParsers) {
  std::uint64_t u = 0;
  EXPECT_TRUE(json::parse_u64("18446744073709551615", u));
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "18446744073709551616", "-1", " 1", "1 ", "+1", "1e3", "0x1"}) {
    EXPECT_FALSE(json::parse_u64(bad, u)) << bad;
  }
}

// ---------------------------------------------------------------------------
// One interval-scaling rule

TEST(ScaledInterval, MatchesTheCliFormulaForEveryInstr) {
  const SystemConfig base = SystemConfig::single_core();
  for (instr_t instr = 1; instr <= 20'000'000; instr += 997) {
    SystemConfig cfg = base;
    apply_scaled_interval(cfg, instr);
    // The CLI's historical default-config formula.
    const cycle_t cli = std::max<cycle_t>(
        base.retention_cycles(),
        static_cast<cycle_t>(10e6 * 4.0 * static_cast<double>(instr) / 400e6));
    ASSERT_EQ(cfg.esteem.interval_cycles, cli) << "instr=" << instr;
    ASSERT_EQ(cfg.esteem.hysteresis_intervals, kScaledHysteresis);
    ASSERT_EQ(cfg.esteem.shrink_confirm_intervals, kScaledShrinkConfirm);
  }
  // Multiply-before-divide: divide-first rounds 1 cycle lower here.
  EXPECT_EQ(scaled_interval(base, 1'011'000), 101'100u);
}

TEST(ScaledInterval, PaperScaledResolvesPerRunLength) {
  for (const instr_t instr : {instr_t{1}, instr_t{200'000}, instr_t{4'000'000}}) {
    SystemConfig rule = SystemConfig::single_core();
    apply_paper_scaled_interval(rule);
    EXPECT_EQ(rule.esteem.interval_cycles, kPaperScaledInterval);
    resolve_interval(rule, instr);
    SystemConfig scaled = SystemConfig::single_core();
    apply_scaled_interval(scaled, instr);
    EXPECT_EQ(rule.esteem.interval_cycles, scaled.esteem.interval_cycles) << instr;
    EXPECT_EQ(rule.esteem.hysteresis_intervals, scaled.esteem.hysteresis_intervals);
    EXPECT_EQ(rule.esteem.shrink_confirm_intervals, scaled.esteem.shrink_confirm_intervals);
    // A resolved (or explicit) cycle count is left alone.
    resolve_interval(rule, instr + 1'000'000);
    EXPECT_EQ(rule.esteem.interval_cycles, scaled.esteem.interval_cycles);
  }
}

TEST(ScaledInterval, MatchesTheGoldenScalesDivideFirstForm) {
  SystemConfig retention40 = SystemConfig::single_core();
  retention40.edram.retention_us = 40.0;
  for (const SystemConfig& cfg : {SystemConfig::single_core(), SystemConfig::dual_core(),
                                  retention40}) {
    struct Case {
      instr_t instr;
      double env;
      double factor;
    };
    for (const Case c : {Case{300'000, 4, 1}, Case{400'000, 4, 1}, Case{200'000, 4, 1},
                         Case{8'000'000, 4, 0.5}, Case{8'000'000, 4, 1},
                         Case{8'000'000, 4, 1.5}, Case{kPaperInstrPerCore, 1, 1}}) {
      const double scale = static_cast<double>(c.instr) / kPaperInstrPerCore;
      const cycle_t divide_first = std::max<cycle_t>(
          cfg.retention_cycles(),
          static_cast<cycle_t>(kPaperIntervalCycles * scale * c.env * c.factor));
      EXPECT_EQ(scaled_interval(cfg, c.instr, c.env, c.factor), divide_first)
          << c.instr << " x" << c.factor;
    }
  }
}

// ---------------------------------------------------------------------------
// One FNV-1a

TEST(Fnv1a, ChainedPiecesEqualTheConcatenation) {
  EXPECT_EQ(fnv1a(kFnv1aBasis, ""), kFnv1aBasis);
  EXPECT_EQ(fnv1a(kFnv1aBasis, "a"), 0xaf63dc4c8601ec8cULL);  // published vector
  const std::string owner = "host:4242", t = "1722988800123", n = "7";
  std::uint64_t chained = fnv1a(kFnv1aBasis, owner);
  chained = fnv1a(chained, t);
  chained = fnv1a(chained, n);
  EXPECT_EQ(chained, fnv1a(kFnv1aBasis, owner + t + n));
}

}  // namespace
}  // namespace esteem
