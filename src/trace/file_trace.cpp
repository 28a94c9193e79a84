#include "trace/file_trace.hpp"

#include <sstream>
#include <stdexcept>

namespace esteem::trace {

namespace {
constexpr const char* kMagic = "ESTEEM-TRACE v1";
}  // namespace

TraceFileWriter::TraceFileWriter(const std::string& path) : out_(path) {
  if (!out_) throw std::runtime_error("TraceFileWriter: cannot open " + path);
  out_ << kMagic << '\n';
}

void TraceFileWriter::write(const MemRef& ref) {
  out_ << ref.gap << ' ' << (ref.is_store ? 'S' : 'L') << ' ' << std::hex
       << ref.block << std::dec << '\n';
  if (!out_) throw std::runtime_error("TraceFileWriter: write failed");
  ++records_;
}

void TraceFileWriter::close() {
  if (out_.is_open()) out_.close();
}

FileTraceGenerator::FileTraceGenerator(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("FileTraceGenerator: cannot open " + path);

  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw std::runtime_error("FileTraceGenerator: bad magic in " + path);
  }

  std::uint64_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    MemRef ref;
    char kind = 0;
    std::uint64_t gap = 0;
    // Extraction into an unsigned type accepts "-1" and wraps it, so no
    // record may carry a sign.
    if (line.find('-') != std::string::npos ||
        !(is >> gap >> kind >> std::hex >> ref.block) || (kind != 'L' && kind != 'S') ||
        gap > UINT32_MAX || ref.block >= (block_t{1} << kCoreSpanBits)) {
      throw std::runtime_error("FileTraceGenerator: parse error at " + path + ":" +
                               std::to_string(line_no));
    }
    ref.gap = static_cast<std::uint32_t>(gap);
    ref.is_store = (kind == 'S');
    refs_.push_back(ref);
  }
  if (refs_.empty()) {
    throw std::runtime_error("FileTraceGenerator: empty trace " + path);
  }
}

MemRef FileTraceGenerator::next() {
  const MemRef ref = refs_[pos_];
  if (++pos_ >= refs_.size()) {
    pos_ = 0;
    ++loops_;
  }
  return ref;
}

void record_trace(AccessGenerator& generator, const std::string& path,
                  std::uint64_t count) {
  TraceFileWriter writer(path);
  for (std::uint64_t i = 0; i < count; ++i) writer.write(generator.next());
  writer.close();
}

}  // namespace esteem::trace
