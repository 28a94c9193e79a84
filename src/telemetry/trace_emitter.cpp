#include "telemetry/trace_emitter.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/json.hpp"

namespace esteem::telemetry {

namespace {

std::chrono::steady_clock::time_point process_start() noexcept {
  static const std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  return start;
}

void append_ts(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out += buf;
}

}  // namespace

TraceEmitter::TraceEmitter() {
  // Pin the wall-clock epoch to emitter construction at the latest, so
  // wall_now_us() deltas taken after construction are always positive.
  (void)process_start();
}

std::uint32_t TraceEmitter::wall_tid() noexcept {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

double TraceEmitter::wall_now_us() noexcept {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   process_start())
      .count();
}

void TraceEmitter::push(Event e) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(e));
}

void TraceEmitter::set_process_name(std::uint32_t pid, std::string_view name) {
  push(Event{'M', pid, 0, 0.0, 0.0, "process_name",
             "{\"name\":\"" + json::escape(name) + "\"}"});
}

void TraceEmitter::set_thread_name(std::uint32_t pid, std::uint32_t tid,
                                   std::string_view name) {
  push(Event{'M', pid, tid, 0.0, 0.0, "thread_name",
             "{\"name\":\"" + json::escape(name) + "\"}"});
}

void TraceEmitter::complete(std::uint32_t pid, std::uint32_t tid, std::string_view name,
                            double ts_us, double dur_us, std::string args_json) {
  push(Event{'X', pid, tid, ts_us, dur_us, std::string(name), std::move(args_json)});
}

void TraceEmitter::instant(std::uint32_t pid, std::uint32_t tid, std::string_view name,
                           double ts_us, std::string args_json) {
  push(Event{'i', pid, tid, ts_us, 0.0, std::string(name), std::move(args_json)});
}

void TraceEmitter::counter(std::uint32_t pid, std::string_view name, double ts_us,
                           double value) {
  std::string args = "{\"value\":";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  args += buf;
  args += '}';
  push(Event{'C', pid, 0, ts_us, 0.0, std::string(name), std::move(args)});
}

std::size_t TraceEmitter::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void TraceEmitter::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

void TraceEmitter::write_json(std::ostream& os) const {
  std::vector<Event> events;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    events = events_;
  }
  os << "{\"traceEvents\":[\n";
  std::string line;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    line.clear();
    line += "{\"ph\":\"";
    line += e.ph;
    line += "\",\"pid\":";
    line += std::to_string(e.pid);
    line += ",\"tid\":";
    line += std::to_string(e.tid);
    line += ",\"name\":\"";
    line += json::escape(e.name);
    line += '"';
    if (e.ph != 'M') {
      line += ",\"ts\":";
      append_ts(line, e.ts_us);
    }
    if (e.ph == 'X') {
      line += ",\"dur\":";
      append_ts(line, e.dur_us);
    }
    if (e.ph == 'i') line += ",\"s\":\"t\"";
    if (!e.args_json.empty()) {
      line += ",\"args\":";
      line += e.args_json;
    }
    line += (i + 1 < events.size()) ? "},\n" : "}\n";
    os << line;
  }
  os << "]}\n";
}

bool TraceEmitter::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) return false;
  write_json(out);
  return out.good();
}

}  // namespace esteem::telemetry
