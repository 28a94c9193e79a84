// Tests for the telemetry subsystem: counter registry (exact totals under
// concurrent updates, duplicate-name rejection, pinned JSON bytes), interval
// recorder (row accounting, JSONL round-trip), trace emitter, and the hub's
// integration with the
// experiment layer — including the observer-effect guard (telemetry on vs.
// off must not change simulation results).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/json.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/run_cache.hpp"
#include "sim/runner.hpp"
#include "telemetry/counter_registry.hpp"
#include "telemetry/interval_recorder.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_emitter.hpp"

namespace esteem::telemetry {
namespace {

// ---------------------------------------------------------------------------
// CounterRegistry

TEST(CounterRegistry, ConcurrentUpdatesAreExact) {
  CounterRegistry reg;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kIters = 20'000;

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        reg.add("merge.hits");
        reg.observe("merge.latency", i % 1000);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(reg.value("merge.hits"), static_cast<double>(kThreads * kIters));
  double expect_sum = 0;
  for (std::uint64_t i = 0; i < kIters; ++i) expect_sum += static_cast<double>(i % 1000);
  expect_sum *= kThreads;
  for (const MetricSample& s : reg.snapshot()) {
    if (s.name != "merge.latency") continue;
    EXPECT_EQ(s.count, kThreads * kIters);
    EXPECT_EQ(s.value, expect_sum);
  }
}

TEST(CounterRegistry, DuplicateNameKindMismatchThrows) {
  CounterRegistry reg;
  // Same name, same kind: both updates land on one metric.
  reg.add("l2.miss", 2);
  reg.add("l2.miss", 3);
  EXPECT_EQ(reg.value("l2.miss"), 5.0);
  EXPECT_EQ(reg.size(), 1u);
  // Same name, different kind: rejected.
  EXPECT_THROW(reg.set("l2.miss", 1.0), std::invalid_argument);
  EXPECT_THROW(reg.observe("l2.miss", 1), std::invalid_argument);
  EXPECT_THROW(reg.add(""), std::invalid_argument);
  EXPECT_EQ(reg.value("l2.miss"), 5.0);
}

TEST(CounterRegistry, GaugeLastWriteWinsAndReset) {
  CounterRegistry reg;
  reg.set("esteem.module0.active_ways", 16.0);
  reg.set("esteem.module0.active_ways", 3.0);
  EXPECT_EQ(reg.value("esteem.module0.active_ways"), 3.0);
  reg.reset();
  EXPECT_EQ(reg.value("esteem.module0.active_ways"), 0.0);
  EXPECT_EQ(reg.size(), 1u);  // names survive reset
  EXPECT_THROW(reg.add("esteem.module0.active_ways"), std::invalid_argument);
  reg.set("esteem.module0.active_ways", 7.5);
  EXPECT_EQ(reg.value("esteem.module0.active_ways"), 7.5);
}

TEST(CounterRegistry, HistogramBucketsByBitWidth) {
  CounterRegistry reg;
  reg.observe("run.cycles", 0);     // bucket 0
  reg.observe("run.cycles", 1);     // bucket 1
  reg.observe("run.cycles", 2);     // bucket 2
  reg.observe("run.cycles", 3);     // bucket 2
  reg.observe("run.cycles", 1024);  // bit_width = 11
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const MetricSample& s = snap[0];
  EXPECT_EQ(s.kind, MetricKind::Histogram);
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.value, 1030.0);
  ASSERT_EQ(s.buckets.size(), 12u);  // trailing empties trimmed
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[2], 2u);
  EXPECT_EQ(s.buckets[11], 1u);
}

TEST(CounterRegistry, SnapshotIsNameSortedAndUnknownIsZero) {
  CounterRegistry reg;
  reg.add("b.second");
  reg.add("a.first");
  reg.add("c.third");
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.first");
  EXPECT_EQ(snap[1].name, "b.second");
  EXPECT_EQ(snap[2].name, "c.third");
  EXPECT_EQ(reg.value("no.such.metric"), 0.0);
}

// counters.json is a published artefact: pin its exact bytes — name order,
// integer and fractional values, and a histogram whose trimmed bucket list
// keeps an inner empty bucket but drops the trailing ones.
TEST(CounterRegistry, ToJsonBytesArePinned) {
  CounterRegistry reg;
  reg.add("sweep.tasks", 3);
  reg.set("run.last_active_ratio", 0.375);
  reg.observe("run.wall_cycles", 0);
  reg.observe("run.wall_cycles", 5);
  reg.observe("run.wall_cycles", 6);
  reg.add("l2.demand_misses", 1234567890123ULL);
  reg.set("esteem.module0.active_ways", 16.0);
  reg.add("memo.hits", 0);  // present, never bumped
  EXPECT_EQ(reg.to_json(),
            "{\"esteem.module0.active_ways\":{\"kind\":\"gauge\",\"value\":16},"
            "\"l2.demand_misses\":{\"kind\":\"counter\",\"value\":1234567890123},"
            "\"memo.hits\":{\"kind\":\"counter\",\"value\":0},"
            "\"run.last_active_ratio\":{\"kind\":\"gauge\",\"value\":0.375},"
            "\"run.wall_cycles\":{\"kind\":\"histogram\",\"value\":11,"
            "\"count\":3,\"buckets\":[1,0,0,2]},"
            "\"sweep.tasks\":{\"kind\":\"counter\",\"value\":3}}");
  EXPECT_EQ(CounterRegistry().to_json(), "{}");
}

TEST(CounterRegistry, GaugeLastWriteWinsAcrossThreads) {
  // Writes are serialized by join(): whichever thread issues the latest
  // set() wins, regardless of which thread it runs on.
  CounterRegistry reg;
  std::thread([&] { reg.set("fleet.phase", 10.0); }).join();
  std::thread([&] { reg.set("fleet.phase", 20.0); }).join();
  EXPECT_EQ(reg.value("fleet.phase"), 20.0);
  std::thread([&] { reg.set("fleet.phase", 5.0); }).join();
  reg.set("fleet.phase", 7.0);  // main thread last
  EXPECT_EQ(reg.value("fleet.phase"), 7.0);
}

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
  EXPECT_EQ(Telemetry::instance().flush().counters_path, "");
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

// The esteem.moduleM.active_ways gauges come from the run itself, not from
// the caller's copy of the series: an ESTEEM run publishes its final
// allocation (the last row of its interval series) and a non-ESTEEM run
// publishes none.
TEST(TelemetryHub, ModuleGaugesNeedOnlyCounters) {
  const TelemetryGuard guard{"test_telemetry_gauges"};
  Telemetry::instance().configure({guard.dir});
  registry().reset();

  sim::RunSpec spec;
  spec.config = tiny();
  spec.workload = wl("h264ref");
  spec.instr_per_core = 300'000;
  spec.warmup_instr_per_core = 50'000;

  spec.technique = sim::Technique::RefrintRPV;
  (void)sim::run_experiment(spec);
  for (const MetricSample& s : registry().snapshot()) {
    if (s.name.rfind("esteem.", 0) == 0) {
      EXPECT_EQ(s.value, 0.0) << s.name << " set by an rpv run";
    }
  }

  spec.technique = sim::Technique::Esteem;
  IntervalRecorder rec;
  (void)sim::run_experiment(spec, &rec);
  ASSERT_GT(rec.rows(), 0u);
  const std::size_t last = rec.rows() - 1;
  for (std::uint32_t m = 0; m < spec.config.esteem.modules; ++m) {
    const std::string module = "module" + std::to_string(m);
    EXPECT_EQ(registry().value("esteem." + module + ".active_ways"),
              rec.series(module + "_active_ways")[last])
        << module;
  }
}

// In a shared pass the ESTEEM cell runs on a hierarchy of its own, not
// hierarchy 0 (the refresh-only lanes'): its gauges and interval series
// must still be its own, equal to those of the ESTEEM run alone.
TEST(TelemetryHub, SharedPassGivesTheEsteemCellItsOwnGaugesAndSeries) {
  const TelemetryGuard guard{"test_telemetry_shared"};
  Telemetry::instance().configure({guard.dir});

  sim::RunSpec spec;
  spec.config = tiny();
  spec.workload = wl("h264ref");
  spec.instr_per_core = 300'000;
  spec.warmup_instr_per_core = 50'000;
  std::vector<sim::RunSpec> group(3, spec);
  group[0].technique = sim::Technique::BaselinePeriodicAll;
  group[1].technique = sim::Technique::Esteem;
  group[2].technique = sim::Technique::RefrintRPV;

  const auto gauges = [&] {
    std::vector<double> out;
    for (std::uint32_t m = 0; m < spec.config.esteem.modules; ++m) {
      out.push_back(registry().value("esteem.module" + std::to_string(m) + ".active_ways"));
    }
    return out;
  };

  registry().reset();
  IntervalRecorder alone;
  spec.technique = sim::Technique::Esteem;
  (void)sim::run_experiment(spec, &alone);
  const std::vector<double> alone_gauges = gauges();
  ASSERT_GT(alone.rows(), 0u);
  ASSERT_GT(alone_gauges.front(), 0.0);

  registry().reset();
  IntervalRecorder shared;
  (void)sim::run_experiment(group, {nullptr, &shared, nullptr});
  EXPECT_EQ(gauges(), alone_gauges);
  ASSERT_EQ(shared.rows(), alone.rows());
  ASSERT_EQ(shared.columns(), alone.columns());
  for (std::size_t r = 0; r < alone.rows(); ++r) {
    EXPECT_EQ(shared.cycle(r), alone.cycle(r)) << "row " << r;
    for (std::size_t c = 0; c < alone.columns().size(); ++c) {
      EXPECT_EQ(shared.value(r, c), alone.value(r, c)) << alone.columns()[c] << " row " << r;
    }
  }
  registry().reset();
}

// The simulated-time trace (pid 1) of a tiny ESTEEM run plus a fused
// baseline+esteem+rpv group, pinned by event count and an FNV-1a of its
// canonical form: one line per event (phase, tid relative to the first run
// lane, name, raw ts/dur tokens, args), sorted. Run lanes are numbered
// process-wide, so rebasing the tids keeps the pin independent of earlier
// tests; sorting keeps it independent of the order lanes were emitted in.
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

  std::ifstream in(dir + "/trace.json");
  std::ostringstream text;
  text << in.rdbuf();
  const json::Value trace = json::parse(text.str());
  std::vector<const json::Value*> events;
  std::uint64_t first_lane = ~0ULL;
  for (const json::Value& e : trace.at("traceEvents").as_array()) {
    if (e.at("pid").as_u64() != 1) continue;
    events.push_back(&e);
    const std::uint64_t tid = e.at("tid").as_u64();
    if (tid > 0) first_lane = std::min(first_lane, tid);
  }
  std::vector<std::string> lines;
  for (const json::Value* e : events) {
    const std::uint64_t tid = e->at("tid").as_u64();
    std::string line = e->at("ph").as_string() + "|" +
                       std::to_string(tid > 0 ? tid - first_lane + 1 : 0) + "|" +
                       e->at("name").as_string();
    for (const char* key : {"ts", "dur"}) {
      const json::Value* v = e->find(key);
      line += "|" + (v != nullptr ? v->text() : std::string());
    }
    if (const json::Value* args = e->find("args")) {
      for (std::size_t i = 0; i < args->size(); ++i) {
        line += "|" + args->key(i) + "=" + args->item(i).text();
      }
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::uint64_t h = kFnv1aBasis;
  for (const std::string& line : lines) h = fnv1a(h, line + "\n");

  EXPECT_EQ(lines.size(), 369u);
  EXPECT_EQ(h, 8300730266439617222ULL);
  std::filesystem::remove_all(dir);
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
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
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
