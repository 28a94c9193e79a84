#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "telemetry/trace_emitter.hpp"

namespace esteem::telemetry {

Telemetry& Telemetry::instance() {
  static Telemetry* hub = new Telemetry();
  return *hub;
}

void Telemetry::configure(const TelemetryConfig& cfg) {
  const std::lock_guard<std::mutex> lock(mutex_);
  dir_ = cfg.dir;
  runs_.clear();
  active_.store(!cfg.dir.empty(), std::memory_order_relaxed);
}

std::unique_ptr<RunSink> Telemetry::begin_run(const std::string& label,
                                              double freq_ghz,
                                              std::vector<std::string> columns) {
  if (!active()) return nullptr;
  return std::make_unique<RunSink>(label, freq_ghz, std::move(columns));
}

namespace {

/// Renders one run's simulated-time lanes from its interval series: lane
/// `tid` carries an "interval" span per row (its hits, misses and
/// refreshes) and the "reconfig" / "fault.uncorrectable" instants at the
/// row's boundary; lane `tid + 1 + m` carries module m's "ways=N" span, the
/// allocation in effect during the row's window (the previous row's, the
/// starting one for the first). Two counter tracks follow the active ratio
/// and the refreshes per interval.
void render_lanes(const RunSink& sink, std::uint32_t tid, TraceEmitter& trace) {
  const IntervalRecorder& rec = sink.recorder;
  const std::size_t modules = sink.start_ways.size();
  trace.set_thread_name(tid, sink.label);
  for (std::size_t m = 0; m < modules; ++m) {
    trace.set_thread_name(tid + 1 + static_cast<std::uint32_t>(m),
                          sink.label + " module " + std::to_string(m));
  }
  const auto count = [&rec](const char* column, std::size_t row) {
    return static_cast<std::uint64_t>(rec.series(column)[row]);
  };
  const std::size_t ways_col = rec.columns().size() - modules;
  for (std::size_t r = 0; r < rec.rows(); ++r) {
    const double t0 = sink.sim_us(r == 0 ? sink.start_cycle : rec.cycle(r - 1));
    const double t1 = sink.sim_us(rec.cycle(r));
    const std::uint64_t refreshes = count("refreshes", r);
    trace.complete(tid, "interval", t0, t1 - t0,
                   "{\"hits\":" + std::to_string(count("demand_hits", r)) +
                       ",\"misses\":" + std::to_string(count("demand_misses", r)) +
                       ",\"refreshes\":" + std::to_string(refreshes) + "}");
    for (std::size_t m = 0; m < modules; ++m) {
      const std::uint32_t ways =
          r == 0 ? sink.start_ways[m]
                 : static_cast<std::uint32_t>(rec.value(r - 1, ways_col + m));
      trace.complete(tid + 1 + static_cast<std::uint32_t>(m),
                     "ways=" + std::to_string(ways), t0, t1 - t0,
                     "{\"ways\":" + std::to_string(ways) + "}");
    }
    if (const std::uint64_t transitions = count("reconfig_transitions", r)) {
      trace.instant(tid, "reconfig", t1,
                    "{\"transitions\":" + std::to_string(transitions) +
                        ",\"writebacks\":" +
                        std::to_string(count("reconfig_writebacks", r)) + "}");
    }
    if (const std::uint64_t events = count("fault_uncorrectable", r)) {
      trace.instant(tid, "fault.uncorrectable", t1,
                    "{\"events\":" + std::to_string(events) + "}");
    }
    trace.counter(sink.label + ".active_ratio", t1, rec.series("active_ratio")[r]);
    trace.counter(sink.label + ".refreshes_per_interval", t1,
                  static_cast<double>(refreshes));
  }
}

}  // namespace

void Telemetry::end_run(const RunSink& sink) {
  if (!active()) return;
  std::ostringstream series;
  sink.recorder.write_jsonl(series);
  FinishedRun run{sink, series.str(), {}};
  std::filesystem::path dir;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    dir = dir_;
  }
  run.path = (dir / (sink.label + ".intervals.jsonl")).string();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out;
  if (!ec) out.open(run.path, std::ios::trunc);
  out << run.series;  // fails on a stream that did not open
  if (!out.good()) {
    std::fprintf(stderr, "telemetry: cannot write %s\n", run.path.c_str());
    run.path.clear();
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  runs_.push_back(std::move(run));
}

Telemetry::FlushResult Telemetry::flush() {
  FlushResult r;
  if (!active()) return r;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto key = [](const FinishedRun& run) {
    return std::tie(run.sink.label, run.series, run.sink.start_cycle,
                    run.sink.start_ways, run.sink.cycles_per_us);
  };
  std::sort(runs_.begin(), runs_.end(),
            [&key](const FinishedRun& a, const FinishedRun& b) { return key(a) < key(b); });

  TraceEmitter trace;
  trace.set_process_name("simulated time");
  std::uint32_t tid = 1;
  for (const FinishedRun& run : runs_) {
    render_lanes(run.sink, tid, trace);
    tid += 1 + static_cast<std::uint32_t>(run.sink.start_ways.size());
    if (!run.path.empty()) r.series_paths.push_back(run.path);
  }

  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  const std::string trace_path = (dir_ / "trace.json").string();
  if (trace.write_file(trace_path)) {
    r.trace_path = trace_path;
    r.trace_events = trace.events();
  } else {
    std::fprintf(stderr, "telemetry: cannot write %s\n", trace_path.c_str());
  }
  return r;
}

std::string sanitize_label(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '+' ||
                    c == '-';
    out += ok ? c : '_';
  }
  return out;
}

std::vector<std::string> interval_columns(std::uint32_t module_ways) {
  std::vector<std::string> cols{
      "active_ratio",        "demand_hits",        "demand_misses",
      "refreshes",           "reconfig_transitions", "reconfig_writebacks",
      "ecc_corrected_reads", "fault_uncorrectable"};
  for (std::uint32_t m = 0; m < module_ways; ++m) {
    cols.push_back("module" + std::to_string(m) + "_active_ways");
  }
  return cols;
}

}  // namespace esteem::telemetry
