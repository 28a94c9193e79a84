// Tests for the telemetry subsystem: interval recorder (row accounting,
// JSONL round-trip), trace emitter, and the hub's integration with the
// experiment layer — the series files, the pinned and order-independent
// trace, and the observer-effect guard (telemetry on vs. off must not
// change simulation results).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/json.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "telemetry/interval_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_emitter.hpp"

namespace esteem::telemetry {
namespace {

// ---------------------------------------------------------------------------
// IntervalRecorder

TEST(IntervalRecorder, RowCountMatchesRecordedIntervals) {
  IntervalRecorder rec({"active_ratio", "demand_misses"});
  for (std::uint64_t i = 0; i < 37; ++i) {
    rec.record((i + 1) * 1000, {1.0 / static_cast<double>(i + 1), static_cast<double>(i)});
  }
  EXPECT_EQ(rec.rows(), 37u);
  EXPECT_EQ(rec.cycle(36), 37'000u);
  EXPECT_EQ(rec.series("demand_misses").size(), 37u);
  EXPECT_THROW((void)rec.series("bogus"), std::out_of_range);
  EXPECT_THROW(rec.record(99, {1.0}), std::invalid_argument);  // width mismatch
}

TEST(IntervalRecorder, JsonlRoundTripIsBitExact) {
  IntervalRecorder rec({"ratio", "huge", "tiny"});
  rec.record(100, {1.0 / 3.0, 1.2345678901234567e18, -7.02e-17});
  rec.record(200, {0.1, 0.0, 123456789.123456789});
  std::ostringstream out;
  rec.write_jsonl(out);

  std::istringstream in(out.str());
  const IntervalRecorder back = IntervalRecorder::read_jsonl(in);
  ASSERT_EQ(back.columns(), rec.columns());
  ASSERT_EQ(back.rows(), rec.rows());
  for (std::size_t r = 0; r < rec.rows(); ++r) {
    EXPECT_EQ(back.cycle(r), rec.cycle(r));
    for (std::size_t c = 0; c < rec.columns().size(); ++c) {
      // %.17g printing makes the round-trip exact, not approximate.
      EXPECT_EQ(back.value(r, c), rec.value(r, c));
    }
  }
}

TEST(IntervalRecorder, ReadJsonlRejectsMalformedInput) {
  std::istringstream missing_cycle(R"({"a":1})");
  EXPECT_THROW((void)IntervalRecorder::read_jsonl(missing_cycle), std::runtime_error);
  std::istringstream ragged(
      "{\"cycle\":1,\"a\":1}\n{\"cycle\":2,\"b\":1}\n");
  EXPECT_THROW((void)IntervalRecorder::read_jsonl(ragged), std::runtime_error);
}

// ---------------------------------------------------------------------------
// TraceEmitter

TEST(TraceEmitter, EmitsChromeTraceEvents) {
  TraceEmitter tr;
  tr.set_process_name("simulated time");
  tr.set_thread_name(1, "mcf.esteem.s42");
  tr.complete(1, "interval", 10.0, 5.0, "{\"hits\":12}");
  tr.instant(1, "reconfig", 12.0);
  tr.counter("active_ratio", 14.0, 0.25);
  EXPECT_EQ(tr.events(), 5u);

  std::ostringstream out;
  tr.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5"), std::string::npos);
  EXPECT_NE(json.find("\"hits\":12"), std::string::npos);
  EXPECT_NE(json.find("mcf.esteem.s42"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Hub + experiment integration

SystemConfig tiny() {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.modules = 8;
  cfg.esteem.interval_cycles = 50'000;
  cfg.esteem.sampling_ratio = 32;
  cfg.esteem.a_min = 2;
  return cfg;
}

trace::Workload wl(const std::string& name) { return {name, {name}}; }

// RAII guard: whatever a test configures, the process-global hub is off
// again afterwards so later tests see the default (disabled) state, and the
// test's telemetry dir (if any) is gone.
struct TelemetryGuard {
  std::string dir;
  ~TelemetryGuard() {
    Telemetry::instance().configure({});
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
};

TEST(TelemetryHub, DisabledByDefaultCreatesNoSink) {
  TelemetryGuard guard;
  Telemetry::instance().configure({});
  EXPECT_FALSE(active());
  auto sink = Telemetry::instance().begin_run("x", 2.0, interval_columns(0));
  EXPECT_EQ(sink, nullptr);
  EXPECT_EQ(Telemetry::instance().flush().trace_path, "");
}

TEST(TelemetryHub, SanitizeLabelAndColumns) {
  EXPECT_EQ(sanitize_label("mcf/esteem s42"), "mcf_esteem_s42");
  const auto cols = interval_columns(2);
  ASSERT_EQ(cols.size(), 10u);
  EXPECT_EQ(cols[0], "active_ratio");
  EXPECT_EQ(cols[8], "module0_active_ways");
  EXPECT_EQ(cols[9], "module1_active_ways");
}

// Independent oracle for the interval series: MemorySystem integrates F_A
// on its own clock, so step-integrating the series' active_ratio over the
// measured window must reproduce the run's time-weighted average. F is 1
// (full associativity) from the measurement start, one interval before the
// first boundary, until that boundary; each row's ratio then holds until the
// next row, the last one until the run ends.
TEST(TelemetryHub, IntervalSeriesIntegratesToRunActiveRatio) {
  for (const bool sampled : {false, true}) {
    for (const std::string name : {"mcf", "h264ref", "gobmk", "libquantum"}) {
      sim::RunSpec spec;
      spec.config = tiny();
      spec.technique = sim::Technique::Esteem;
      spec.workload = wl(name);
      spec.instr_per_core = 300'000;
      spec.warmup_instr_per_core = 30'000;
      if (sampled) {
        SamplingConfig& sc = spec.config.sampling;
        sc.enabled = true;
        sc.window_instr = 2'000;
        sc.detail_warm_instr = 500;
        sc.ff_warm_instr = 5'000;
        sc.cold_warm_instr = 20'000;
        sc.period_instr = 50'000;
      }
      IntervalRecorder rec;
      const sim::RunOutcome out = sim::run_experiment(spec, &rec);
      ASSERT_GT(rec.rows(), 0u) << name;

      const std::uint64_t interval = spec.config.esteem.interval_cycles;
      const std::uint64_t start = rec.cycle(0) - interval;
      const std::uint64_t end = start + out.raw.wall_cycles;
      const std::vector<double>& ratio = rec.series("active_ratio");
      double area = static_cast<double>(interval);
      for (std::size_t i = 0; i < rec.rows(); ++i) {
        const std::uint64_t until = i + 1 < rec.rows() ? rec.cycle(i + 1) : end;
        ASSERT_LE(rec.cycle(i), until) << name << " row " << i;
        area += ratio[i] * static_cast<double>(until - rec.cycle(i));
      }
      EXPECT_NEAR(area / static_cast<double>(out.raw.wall_cycles),
                  out.raw.avg_active_ratio, 1e-12)
          << name << (sampled ? " sampled" : " exhaustive");
    }
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// The interval series the hub wrote for `label` into `dir`.
IntervalRecorder read_series(const std::string& dir, const std::string& label) {
  std::ifstream in(dir + "/" + label + ".intervals.jsonl");
  return IntervalRecorder::read_jsonl(in);
}

// A run's final module allocation is the last row of the series the hub
// writes, with no caller recorder: an ESTEEM run's file ends in the module
// columns a caller's recorder holds, and a non-ESTEEM run's file has none.
TEST(TelemetryHub, ModuleGaugesNeedOnlyCounters) {
  const TelemetryGuard guard{"test_telemetry_gauges"};
  std::filesystem::remove_all(guard.dir);
  Telemetry::instance().configure({guard.dir});

  sim::RunSpec spec;
  spec.config = tiny();
  spec.workload = wl("h264ref");
  spec.instr_per_core = 300'000;
  spec.warmup_instr_per_core = 50'000;

  spec.technique = sim::Technique::RefrintRPV;
  (void)sim::run_experiment(spec);
  EXPECT_EQ(read_series(guard.dir, "h264ref.rpv.s42").columns(), interval_columns(0));

  spec.technique = sim::Technique::Esteem;
  (void)sim::run_experiment(spec);
  const IntervalRecorder written = read_series(guard.dir, "h264ref.esteem.s42");
  Telemetry::instance().configure({});
  IntervalRecorder rec;
  (void)sim::run_experiment(spec, &rec);
  ASSERT_GT(rec.rows(), 0u);
  ASSERT_EQ(written.rows(), rec.rows());
  const std::size_t last = rec.rows() - 1;
  for (std::uint32_t m = 0; m < spec.config.esteem.modules; ++m) {
    const std::string column = "module" + std::to_string(m) + "_active_ways";
    EXPECT_EQ(written.series(column)[last], rec.series(column)[last]) << column;
  }
}

// In a shared pass the ESTEEM cell runs on a hierarchy of its own, not
// hierarchy 0 (the refresh-only lanes'): its interval series must still be
// its own, equal to that of the ESTEEM run alone.
TEST(TelemetryHub, SharedPassGivesTheEsteemCellItsOwnSeries) {
  sim::RunSpec spec;
  spec.config = tiny();
  spec.workload = wl("h264ref");
  spec.instr_per_core = 300'000;
  spec.warmup_instr_per_core = 50'000;
  std::vector<sim::RunSpec> group(3, spec);
  group[0].technique = sim::Technique::BaselinePeriodicAll;
  group[1].technique = sim::Technique::Esteem;
  group[2].technique = sim::Technique::RefrintRPV;

  IntervalRecorder alone;
  spec.technique = sim::Technique::Esteem;
  (void)sim::run_experiment(spec, &alone);
  ASSERT_GT(alone.rows(), 0u);

  IntervalRecorder shared;
  (void)sim::run_experiment(group, {nullptr, &shared, nullptr});
  ASSERT_EQ(shared.rows(), alone.rows());
  ASSERT_EQ(shared.columns(), alone.columns());
  for (std::size_t r = 0; r < alone.rows(); ++r) {
    EXPECT_EQ(shared.cycle(r), alone.cycle(r)) << "row " << r;
    for (std::size_t c = 0; c < alone.columns().size(); ++c) {
      EXPECT_EQ(shared.value(r, c), alone.value(r, c)) << alone.columns()[c] << " row " << r;
    }
  }
}

/// Canonical form of a trace.json: one line per pid-1 event (phase, lane,
/// name, raw ts/dur tokens, args), sorted. A lane is named by its
/// thread_name metadata (run label, or "<label> module k"; "" for tid 0),
/// so the form is independent of how tids were numbered and of the order
/// lanes were emitted in.
std::vector<std::string> canonical_trace(const std::string& path) {
  const json::Value trace = json::parse(file_bytes(path));
  std::map<std::uint64_t, std::string> lane_names;
  for (const json::Value& e : trace.at("traceEvents").as_array()) {
    if (e.at("name").as_string() == "thread_name") {
      lane_names[e.at("tid").as_u64()] = e.at("args").at("name").as_string();
    }
  }
  std::vector<std::string> lines;
  for (const json::Value& e : trace.at("traceEvents").as_array()) {
    if (e.at("pid").as_u64() != 1) continue;
    const std::uint64_t tid = e.at("tid").as_u64();
    std::string line = e.at("ph").as_string() + "|" +
                       (tid > 0 ? lane_names.at(tid) : std::string()) + "|" +
                       e.at("name").as_string();
    for (const char* key : {"ts", "dur"}) {
      const json::Value* v = e.find(key);
      line += "|" + (v != nullptr ? v->text() : std::string());
    }
    if (const json::Value* args = e.find("args")) {
      for (std::size_t i = 0; i < args->size(); ++i) {
        line += "|" + args->key(i) + "=" + args->item(i).text();
      }
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// The simulated-time trace of a tiny ESTEEM run plus a fused
// baseline+esteem+rpv group, pinned by event count and an FNV-1a of its
// canonical form (canonical_trace).
TEST(TelemetryHub, SimulatedTimeTraceIsPinned) {
  TelemetryGuard guard;
  const std::string dir = "test_telemetry_trace_pin";
  std::filesystem::remove_all(dir);
  Telemetry::instance().configure({dir});

  sim::RunSpec spec;
  spec.config = tiny();
  spec.workload = wl("h264ref");
  spec.instr_per_core = 200'000;
  spec.warmup_instr_per_core = 20'000;
  spec.technique = sim::Technique::Esteem;
  (void)sim::run_experiment(spec);
  std::vector<sim::RunSpec> group(3, spec);
  group[0].technique = sim::Technique::BaselinePeriodicAll;
  group[2].technique = sim::Technique::RefrintRPV;
  (void)sim::run_experiment(group);
  (void)Telemetry::instance().flush();

  const std::vector<std::string> lines = canonical_trace(dir + "/trace.json");
  std::uint64_t h = kFnv1aBasis;
  for (const std::string& line : lines) h = fnv1a(h, line + "\n");

  EXPECT_EQ(lines.size(), 369u);
  EXPECT_EQ(h, 4022211417141468650ULL);
  std::filesystem::remove_all(dir);
}

// Runs of a threaded sweep end in whatever order their threads finish; the
// trace must not follow it. Two sinks ended in either order give the same
// trace.json bytes.
TEST(TelemetryHub, TraceBytesDoNotDependOnRunOrder) {
  TelemetryGuard guard;
  const auto sink = [](const std::string& label, std::uint32_t modules) {
    RunSink s(label, 2.0, interval_columns(modules));
    s.start_cycle = 1'000;
    s.start_ways.assign(modules, 4);
    for (std::uint64_t r = 1; r <= 3; ++r) {
      std::vector<double> row{0.5, 10.0 * r, 2.0, 7.0, 1.0, 3.0, 0.0, 0.0};
      for (std::uint32_t m = 0; m < modules; ++m) row.push_back(static_cast<double>(m + r));
      s.recorder.record(1'000 + 500 * r, row);
    }
    return s;
  };
  const RunSink esteem = sink("mcf.esteem.s42", 2);
  const RunSink rpv = sink("gamess.rpv.s42", 0);

  std::vector<std::string> traces;
  for (const bool esteem_first : {true, false}) {
    const std::string dir =
        std::string("test_telemetry_order_") + (esteem_first ? "a" : "b");
    std::filesystem::remove_all(dir);
    Telemetry::instance().configure({dir});
    Telemetry::instance().end_run(esteem_first ? esteem : rpv);
    Telemetry::instance().end_run(esteem_first ? rpv : esteem);
    const Telemetry::FlushResult flushed = Telemetry::instance().flush();
    ASSERT_EQ(flushed.trace_path, dir + "/trace.json");
    traces.push_back(file_bytes(flushed.trace_path));
    std::filesystem::remove_all(dir);
  }
  ASSERT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
}

// Observer-effect guard: running the same sweep with full telemetry enabled
// must produce a byte-identical CSV. Telemetry reads simulator state; it
// never perturbs it.
TEST(TelemetryHub, SweepCsvIsByteIdenticalWithTelemetryOn) {
  TelemetryGuard guard;
  const std::string dir = "test_telemetry_observer";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  sim::SweepSpec spec;
  spec.config = tiny();
  spec.workloads = {wl("gamess"), wl("gobmk")};
  spec.techniques = {sim::Technique::Esteem, sim::Technique::RefrintRPV};
  spec.instr_per_core = 100'000;
  spec.warmup_instr_per_core = 20'000;
  spec.threads = 2;

  auto sweep_to_csv = [&](const std::string& name) {
    // Clear the memo cache so both passes genuinely simulate.
    sim::RunCache::instance().clear();
    const sim::SweepResult result = sim::run_sweep(spec);
    EXPECT_TRUE(result.ok());
    const std::string path = dir + "/" + name;
    sim::write_csv(result, path);
    return file_bytes(path);
  };

  Telemetry::instance().configure({});
  const std::string off = sweep_to_csv("off.csv");

  Telemetry::instance().configure({dir});
  const std::string on = sweep_to_csv("on.csv");

  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on);

  Telemetry::instance().configure({});
  sim::RunCache::instance().clear();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace esteem::telemetry
