// Trace file I/O: record synthetic streams to disk and replay external
// traces through the simulator. This is the adoption path for users who
// have real application traces (e.g. from a PIN tool) instead of our
// synthetic SPEC proxies.
//
// Format (text, one record per line, '#' comments allowed):
//   ESTEEM-TRACE v1
//   <gap> <L|S> <block-hex>
// where gap is the number of non-memory instructions preceding the memory
// operation, L/S marks a load/store, and block-hex is the cache-block
// number in hexadecimal. The gap must fit in 32 bits and the block must be
// below 2^kCoreSpanBits; neither may carry a sign.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/access.hpp"

namespace esteem::trace {

/// Streams MemRefs to a trace file. Throws std::runtime_error on I/O error.
class TraceFileWriter {
 public:
  explicit TraceFileWriter(const std::string& path);

  void write(const MemRef& ref);
  std::uint64_t records_written() const noexcept { return records_; }
  void close();

 private:
  std::ofstream out_;
  std::uint64_t records_ = 0;
};

/// Replays a trace file as an AccessGenerator. The trace loops when
/// exhausted (simulations often need more references than the trace holds);
/// loop_count() reports how many times it wrapped.
class FileTraceGenerator final : public AccessGenerator {
 public:
  explicit FileTraceGenerator(const std::string& path);

  MemRef next() override;

  std::uint64_t records() const noexcept { return refs_.size(); }
  std::uint64_t loop_count() const noexcept { return loops_; }

 private:
  std::vector<MemRef> refs_;
  std::size_t pos_ = 0;
  std::uint64_t loops_ = 0;
};

/// Convenience: record `count` references of a generator to a file.
void record_trace(AccessGenerator& generator, const std::string& path,
                  std::uint64_t count);

}  // namespace esteem::trace
