// Per-run interval time-series: one row per algorithm interval, one column
// per selected metric, stored column-major so exports stream without
// per-row allocation. The memory system records a row at every
// tick_interval() when a run sink is attached (gated off by default); the
// export is JSONL (one object per interval, self-describing keys, %.17g
// values via common/json), and read_jsonl() parses it back bit-exactly,
// keeping the column order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace esteem::telemetry {

class IntervalRecorder {
 public:
  explicit IntervalRecorder(std::vector<std::string> columns = {});

  const std::vector<std::string>& columns() const noexcept { return columns_; }
  std::size_t rows() const noexcept { return cycles_.size(); }

  /// Appends one interval snapshot; `values` must have one entry per column.
  void record(std::uint64_t cycle, const std::vector<double>& values);

  std::uint64_t cycle(std::size_t row) const { return cycles_.at(row); }
  double value(std::size_t row, std::size_t col) const {
    return series_.at(col).at(row);
  }
  /// Whole column by name; throws std::out_of_range for unknown names.
  const std::vector<double>& series(const std::string& column) const;

  /// One JSON object per line: {"cycle":N,"col":v,...} in column order.
  void write_jsonl(std::ostream& os) const;

  /// Parses a stream produced by write_jsonl (column set taken from the
  /// first line; every line must carry the same keys). Throws
  /// std::runtime_error on malformed input.
  static IntervalRecorder read_jsonl(std::istream& is);

 private:
  std::vector<std::string> columns_;
  std::vector<std::uint64_t> cycles_;
  std::vector<std::vector<double>> series_;  // [column][row]
};

}  // namespace esteem::telemetry
