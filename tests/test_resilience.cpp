// Tests for the resilience layer: CRC-32 and the shutdown flag.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "resilience/crc32.hpp"
#include "resilience/shutdown.hpp"

namespace esteem::resilience {
namespace {

TEST(Crc32, KnownAnswer) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string("")), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32(data);
  const std::uint32_t head = crc32(data.data(), 10);
  EXPECT_EQ(crc32(data.data() + 10, data.size() - 10, head), whole);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data = "payload";
  const std::uint32_t before = crc32(data);
  data[3] ^= 0x01;
  EXPECT_NE(crc32(data), before);
}

TEST(Shutdown, RequestAndClear) {
  clear_shutdown();
  EXPECT_FALSE(shutdown_requested());
  request_shutdown();
  EXPECT_TRUE(shutdown_requested());
  request_shutdown();  // idempotent
  EXPECT_TRUE(shutdown_requested());
  clear_shutdown();
  EXPECT_FALSE(shutdown_requested());
}

TEST(Shutdown, InstallHandlersIsIdempotent) {
  install_signal_handlers();
  install_signal_handlers();
  EXPECT_FALSE(shutdown_requested());
}

}  // namespace
}  // namespace esteem::resilience
