#include "telemetry/trace_emitter.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/json.hpp"

namespace esteem::telemetry {

namespace {

void append_ts(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out += buf;
}

}  // namespace

void TraceEmitter::set_process_name(std::string_view name) {
  events_.push_back(
      Event{'M', 0, 0.0, 0.0, "process_name", "{\"name\":\"" + json::escape(name) + "\"}"});
}

void TraceEmitter::set_thread_name(std::uint32_t tid, std::string_view name) {
  events_.push_back(
      Event{'M', tid, 0.0, 0.0, "thread_name", "{\"name\":\"" + json::escape(name) + "\"}"});
}

void TraceEmitter::complete(std::uint32_t tid, std::string_view name, double ts_us,
                            double dur_us, std::string args_json) {
  events_.push_back(Event{'X', tid, ts_us, dur_us, std::string(name), std::move(args_json)});
}

void TraceEmitter::instant(std::uint32_t tid, std::string_view name, double ts_us,
                           std::string args_json) {
  events_.push_back(Event{'i', tid, ts_us, 0.0, std::string(name), std::move(args_json)});
}

void TraceEmitter::counter(std::string_view name, double ts_us, double value) {
  std::string args = "{\"value\":";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  args += buf;
  args += '}';
  events_.push_back(Event{'C', 0, ts_us, 0.0, std::string(name), std::move(args)});
}

void TraceEmitter::write_json(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  std::string line;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    line.clear();
    line += "{\"ph\":\"";
    line += e.ph;
    line += "\",\"pid\":";
    line += std::to_string(kPid);
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
    line += (i + 1 < events_.size()) ? "},\n" : "}\n";
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
