// Tests for the resilience layer: CRC-32, the shutdown flag, the run
// watchdog, and the retry policy.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>

#include "resilience/crc32.hpp"
#include "resilience/shutdown.hpp"
#include "resilience/watchdog.hpp"

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

TEST(Backoff, DoublesPerAttemptAndCapsTheShift) {
  EXPECT_EQ(next_backoff_ms(0, 100), 100u);
  EXPECT_EQ(next_backoff_ms(1, 100), 200u);
  EXPECT_EQ(next_backoff_ms(4, 100), 1600u);
  EXPECT_EQ(next_backoff_ms(0, 0), 0u);
  // The multiplier saturates at 2^16 so huge attempt counts stay defined.
  EXPECT_EQ(next_backoff_ms(16, 1), 1u << 16);
  EXPECT_EQ(next_backoff_ms(1000, 1), 1u << 16);
}

TEST(Retry, TransientFailuresRetryThenSucceed) {
  RetryPolicy policy;
  policy.max_retries = 3;
  policy.backoff_ms = 0;
  int calls = 0;
  int retries = 0;
  const int result = with_retries(
      policy,
      [&] {
        if (++calls < 3) throw std::runtime_error("transient");
        return 7;
      },
      [&](std::uint32_t, std::uint64_t) { ++retries; });
  EXPECT_EQ(result, 7);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries, 2);
}

TEST(Retry, ExhaustedRetriesPropagateTheFinalFailure) {
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.backoff_ms = 0;
  int calls = 0;
  int retries = 0;
  EXPECT_THROW(with_retries(
                   policy,
                   [&]() -> int {
                     ++calls;
                     throw std::runtime_error("permanent");
                   },
                   [&](std::uint32_t, std::uint64_t) { ++retries; }),
               std::runtime_error);
  EXPECT_EQ(calls, 3);  // first attempt + 2 retries
  EXPECT_EQ(retries, 2);
}

TEST(Retry, DeadlineOverrunsAreNeverRetried) {
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.backoff_ms = 0;
  int calls = 0;
  int retries = 0;
  EXPECT_THROW(with_retries(
                   policy,
                   [&]() -> int {
                     ++calls;
                     throw DeadlineExceeded("slow-run", 10);
                   },
                   [&](std::uint32_t, std::uint64_t) { ++retries; }),
               DeadlineExceeded);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries, 0);
}

TEST(WatchdogTest, DeadlineExceededCarriesLabelAndBudget) {
  const DeadlineExceeded e("baseline:mcf", 250);
  const std::string what = e.what();
  EXPECT_NE(what.find("baseline:mcf"), std::string::npos);
  EXPECT_NE(what.find("250"), std::string::npos);
}

TEST(WatchdogTest, ZeroDeadlineGuardIsInert) {
  const std::size_t before = Watchdog::instance().active();
  WatchdogGuard guard("inert", 0);
  EXPECT_EQ(Watchdog::instance().active(), before);
  EXPECT_FALSE(guard.expired());
}

TEST(WatchdogTest, FastRunIsNotExpired) {
  WatchdogGuard guard("fast", 60'000);
  EXPECT_EQ(Watchdog::instance().active(), 1u);
  EXPECT_FALSE(guard.expired());
  EXPECT_EQ(Watchdog::instance().active(), 0u);
}

TEST(WatchdogTest, SlowRunExpires) {
  WatchdogGuard guard("slow", 5);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(guard.expired());
  EXPECT_EQ(Watchdog::instance().active(), 0u);
}

TEST(WatchdogTest, GuardDestructorDeregistersOnExceptionPath) {
  try {
    WatchdogGuard guard("throwing", 60'000);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(Watchdog::instance().active(), 0u);
}

}  // namespace
}  // namespace esteem::resilience
