// Tests for retention model, baseline refresh policies, and the engine.
#include <gtest/gtest.h>

#include "cache/bank.hpp"
#include "edram/refresh_engine.hpp"
#include "edram/refresh_policy.hpp"
#include "edram/retention.hpp"

namespace esteem::edram {
namespace {

TEST(Retention, MatchesPaperCalibrationPoints) {
  // 50 us at 60 C (paper default) and 40 us at 105 C (Barth et al.).
  EXPECT_NEAR(retention_us_at(60.0), 50.0, 1e-9);
  EXPECT_NEAR(retention_us_at(105.0), 40.0, 1e-9);
}

TEST(Retention, DecreasesWithTemperature) {
  double prev = retention_us_at(0.0);
  for (double t = 10.0; t <= 120.0; t += 10.0) {
    const double r = retention_us_at(t);
    EXPECT_LT(r, prev);
    EXPECT_GT(r, 0.0);
    prev = r;
  }
}

TEST(PeriodicAll, RefreshesEveryLineEveryPeriod) {
  PeriodicAllPolicy p(1000, 100);
  EXPECT_EQ(p.advance(99), 0u);
  EXPECT_EQ(p.advance(100), 1000u);   // first boundary
  EXPECT_EQ(p.advance(150), 0u);
  EXPECT_EQ(p.advance(350), 2000u);   // boundaries at 200 and 300
  EXPECT_DOUBLE_EQ(p.refresh_lines_per_period(), 1000.0);
}

TEST(PeriodicAll, CountsInvalidLinesToo) {
  PeriodicAllPolicy p(64, 10);
  // The baseline refreshes all lines regardless of validity (§6.4): no
  // listener interaction changes the count.
  p.on_fill(0, 0, 1, 0);
  p.on_invalidate(0, 0, false, 1);
  EXPECT_EQ(p.advance(10), 64u);
}

TEST(PeriodicValid, RefreshesOnlyValidLines) {
  PeriodicValidPolicy p(100);
  p.on_fill(0, 0, 10, 5);
  p.on_fill(0, 1, 11, 6);
  EXPECT_EQ(p.advance(100), 2u);
  p.on_invalidate(0, 0, false, 110);
  EXPECT_EQ(p.advance(200), 1u);
  EXPECT_EQ(p.valid_lines(), 1u);
  EXPECT_DOUBLE_EQ(p.refresh_lines_per_period(), 1.0);
}

TEST(PeriodicValid, EmptyCacheRefreshesNothing) {
  PeriodicValidPolicy p(50);
  EXPECT_EQ(p.advance(1000), 0u);
}

TEST(Policies, RejectZeroRetention) {
  EXPECT_THROW(PeriodicAllPolicy(10, 0), std::invalid_argument);
  EXPECT_THROW(PeriodicValidPolicy(0), std::invalid_argument);
}

TEST(RefreshEngine, AccumulatesWindowAndTotal) {
  PeriodicAllPolicy p(100, 10);
  RefreshEngine engine(p, nullptr, 10.0);
  engine.advance(10);
  engine.advance(20);
  EXPECT_EQ(engine.total_refreshes(), 200u);
  // A window is the difference of two readings (MemorySystem's baseline).
  const std::uint64_t window_start = engine.total_refreshes();
  engine.advance(30);
  EXPECT_EQ(engine.total_refreshes() - window_start, 100u);
  engine.advance(30);  // no time passed: nothing more to refresh
  EXPECT_EQ(engine.total_refreshes() - window_start, 100u);
  EXPECT_EQ(engine.total_refreshes(), 300u);
}

TEST(RefreshEngine, SyncsBankLoadFromPolicyDemand) {
  PeriodicValidPolicy p(100);
  for (std::uint32_t w = 0; w < 8; ++w) p.on_fill(0, w, w, 0);
  cache::BankGroup banks(2, 8, 1, 1);
  RefreshEngine engine(p, &banks, 100.0);
  engine.sync_bank_load(0);
  // 8 valid lines per 100 cycles over 2 banks -> one slot per 25 cycles.
  (void)banks.access(0, 1000);
  (void)banks.access(1, 1000);
  EXPECT_NEAR(static_cast<double>(banks.total_refresh_slots()), 2.0 * 1000.0 / 25.0,
              4.0);
}

TEST(RefreshEngine, RejectsNonPositiveRetention) {
  PeriodicValidPolicy p(10);
  EXPECT_THROW(RefreshEngine(p, nullptr, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace esteem::edram
