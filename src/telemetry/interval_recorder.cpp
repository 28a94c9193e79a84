#include "telemetry/interval_recorder.hpp"

#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "common/json.hpp"

namespace esteem::telemetry {

IntervalRecorder::IntervalRecorder(std::vector<std::string> columns)
    : columns_(std::move(columns)), series_(columns_.size()) {}

void IntervalRecorder::record(std::uint64_t cycle, const std::vector<double>& values) {
  if (values.size() != columns_.size()) {
    throw std::invalid_argument("IntervalRecorder: row has " +
                                std::to_string(values.size()) + " values, expected " +
                                std::to_string(columns_.size()));
  }
  cycles_.push_back(cycle);
  for (std::size_t c = 0; c < values.size(); ++c) series_[c].push_back(values[c]);
}

const std::vector<double>& IntervalRecorder::series(const std::string& column) const {
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (columns_[c] == column) return series_[c];
  }
  throw std::out_of_range("IntervalRecorder: no column '" + column + "'");
}

void IntervalRecorder::write_jsonl(std::ostream& os) const {
  std::string line;
  for (std::size_t r = 0; r < rows(); ++r) {
    line.clear();
    line += "{\"cycle\":";
    line += std::to_string(cycles_[r]);
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      line += ",\"";
      line += json::escape(columns_[c]);
      line += "\":";
      line += json::number(series_[c][r]);
    }
    line += "}\n";
    os << line;
  }
}

IntervalRecorder IntervalRecorder::read_jsonl(std::istream& is) {
  std::vector<std::string> columns;
  std::vector<std::uint64_t> cycles;
  std::vector<std::vector<double>> values;  // [row][column]

  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const json::Value row = json::parse(line);
    if (!row.is_object()) throw std::runtime_error("interval jsonl: row is not an object");
    std::vector<std::string> keys;
    std::vector<double> vals;
    std::optional<std::uint64_t> cycle;
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row.key(i) == "cycle") {
        cycle = row.item(i).as_u64();
      } else {
        keys.push_back(row.key(i));
        vals.push_back(row.item(i).as_f64());
      }
    }
    if (!cycle) throw std::runtime_error("interval jsonl: row without \"cycle\"");
    if (cycles.empty()) {
      columns = keys;
    } else if (keys != columns) {
      throw std::runtime_error("interval jsonl: inconsistent columns across rows");
    }
    cycles.push_back(*cycle);
    values.push_back(std::move(vals));
  }

  IntervalRecorder rec(std::move(columns));
  for (std::size_t r = 0; r < cycles.size(); ++r) rec.record(cycles[r], values[r]);
  return rec;
}

}  // namespace esteem::telemetry
