// Tests for the retention model and the baseline refresh policies.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace esteem::edram
