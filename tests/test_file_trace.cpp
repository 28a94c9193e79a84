// Tests for trace file recording and replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include <unistd.h>

#include "cpu/system.hpp"
#include "trace/file_trace.hpp"
#include "trace/patterns.hpp"
#include "trace/spec_profiles.hpp"

namespace esteem::trace {
namespace {

/// Each case writes its own file (test name plus pid), so cases that ctest
/// runs as concurrent processes never share a path.
std::string per_test_trace_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string("test_trace_") + info->name() + "_" +
         std::to_string(::getpid()) + ".etr";
}

class FileTraceTest : public ::testing::Test {
 protected:
  void TearDown() override { std::filesystem::remove(path_); }

  /// Writes a one-record trace and parses it.
  FileTraceGenerator parse(const std::string& record) {
    {
      std::ofstream out(path_);
      out << "ESTEEM-TRACE v1\n" << record << "\n";
    }
    return FileTraceGenerator(path_);
  }

  /// A refused record must fail with the path:line error rather than alias
  /// another line.
  void expect_rejected(const std::string& record) {
    try {
      parse(record);
      ADD_FAILURE() << "accepted '" << record << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path_ + ":2"), std::string::npos)
          << "'" << record << "': " << e.what();
    }
  }

  const std::string path_ = per_test_trace_path();
};

TEST_F(FileTraceTest, RoundTripsReferences) {
  {
    TraceFileWriter writer(path_);
    writer.write({0x1234, 7, false});
    writer.write({0xABCDEF, 0, true});
    writer.write({42, 3, false});
    EXPECT_EQ(writer.records_written(), 3u);
  }
  FileTraceGenerator gen(path_);
  EXPECT_EQ(gen.records(), 3u);

  MemRef r = gen.next();
  EXPECT_EQ(r.block, 0x1234u);
  EXPECT_EQ(r.gap, 7u);
  EXPECT_FALSE(r.is_store);
  r = gen.next();
  EXPECT_EQ(r.block, 0xABCDEFu);
  EXPECT_TRUE(r.is_store);
  r = gen.next();
  EXPECT_EQ(r.block, 42u);

  // Wraps around and counts the loop.
  r = gen.next();
  EXPECT_EQ(r.block, 0x1234u);
  EXPECT_EQ(gen.loop_count(), 1u);
}

TEST_F(FileTraceTest, RecordTraceCapturesGenerator) {
  const auto& profile = profile_by_name("gobmk");
  auto gen = make_generator(profile, {4096, 64}, 7);
  record_trace(*gen, path_, 500);

  auto replay = make_generator(profile, {4096, 64}, 7);
  FileTraceGenerator from_file(path_);
  ASSERT_EQ(from_file.records(), 500u);
  for (int i = 0; i < 500; ++i) {
    const MemRef a = replay->next();
    const MemRef b = from_file.next();
    EXPECT_EQ(a.block, b.block);
    EXPECT_EQ(a.gap, b.gap);
    EXPECT_EQ(a.is_store, b.is_store);
  }
}

TEST_F(FileTraceTest, CommentsAndBadInputs) {
  {
    std::ofstream out(path_);
    out << "ESTEEM-TRACE v1\n# comment line\n3 L ff\n\n0 S 10\n";
  }
  FileTraceGenerator gen(path_);
  EXPECT_EQ(gen.records(), 2u);
  EXPECT_EQ(gen.next().block, 0xFFu);

  {
    std::ofstream out(path_);
    out << "NOT-A-TRACE\n";
  }
  EXPECT_THROW(FileTraceGenerator{path_}, std::runtime_error);

  {
    std::ofstream out(path_);
    out << "ESTEEM-TRACE v1\n1 X ff\n";  // bad kind
  }
  EXPECT_THROW(FileTraceGenerator{path_}, std::runtime_error);

  {
    std::ofstream out(path_);
    out << "ESTEEM-TRACE v1\n";  // no records
  }
  EXPECT_THROW(FileTraceGenerator{path_}, std::runtime_error);
  EXPECT_THROW(FileTraceGenerator{"/nonexistent.etr"}, std::runtime_error);
}

TEST_F(FileTraceTest, RejectsGapPast32Bits) {
  expect_rejected("4294967296 L ff");  // 2^32 would wrap to 0
  EXPECT_EQ(parse("4294967295 L ff").next().gap, 4294967295u);
}

TEST_F(FileTraceTest, RejectsSignedFields) {
  expect_rejected("-1 L ff");  // would wrap to 2^64-1, then to 2^32-1
  expect_rejected("0 L -1");
}

TEST_F(FileTraceTest, RejectsBlocksPastTheCoreSpan) {
  expect_rejected("0 L 100000000000");  // 2^44: core 1's first line
  expect_rejected("0 S ffffffffffffffff");  // would read as an empty slot
  EXPECT_EQ(parse("0 S fffffffffff").next().block, (block_t{1} << kCoreSpanBits) - 1);
}

// The synthetic generators must stay inside one core's address span, or
// cpu::System's per-core offset would alias two cores' lines.
TEST(CoreSpan, EveryProfileStaysBelowTheCoreSpan) {
  for (const BenchmarkProfile& profile : all_profiles()) {
    for (const std::uint64_t seed : {42u, 7u}) {
      auto gen = make_generator(profile, GeneratorContext{}, seed);
      block_t highest = 0;
      for (int i = 0; i < 50'000; ++i) highest = std::max(highest, gen->next().block);
      EXPECT_LT(highest, block_t{1} << kCoreSpanBits)
          << profile.name << " seed " << seed;
    }
  }
}

TEST_F(FileTraceTest, SystemReplaysTraceWorkload) {
  const auto& profile = profile_by_name("gamess");
  auto gen = make_generator(profile, {4096, 64}, 11);
  record_trace(*gen, path_, 20'000);

  SystemConfig cfg = SystemConfig::single_core();
  cfg.esteem.interval_cycles = 2 * cfg.retention_cycles();
  cpu::System system(cfg, cpu::Technique::Esteem, {"trace:" + path_}, 11);
  cpu::RunOptions opt;
  opt.instr_per_core = 100'000;
  const cpu::RawRunResult r = system.run(opt);
  EXPECT_GT(r.ipc[0], 0.0);
  EXPECT_GT(r.refreshes, 0u);
}

}  // namespace
}  // namespace esteem::trace
