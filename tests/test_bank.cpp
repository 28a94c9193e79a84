// Tests for the bank timing model, including a property test checking the
// O(1) closed-form refresh drain against a naive slot-by-slot reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "cache/bank.hpp"
#include "common/rng.hpp"

namespace esteem::cache {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(BankTimer, NoRefreshNoWaitWhenIdle) {
  BankTimer t(1, 2);
  EXPECT_EQ(t.access(100), 0u);
  EXPECT_EQ(t.access(200), 0u);
}

TEST(BankTimer, BackToBackAccessesQueue) {
  BankTimer t(1, 4);
  EXPECT_EQ(t.access(10), 0u);  // bank busy until 14
  EXPECT_EQ(t.access(10), 4u);  // waits for first access
  EXPECT_EQ(t.access(10), 8u);
}

TEST(BankTimer, RefreshSlotsDelayAccess) {
  BankTimer t(2, 1);
  t.set_refresh_spacing(10.0, 0);  // slots at 10, 20, 30, ...
  // Access at 10: the slot at t=10 is served first (2 cycles).
  EXPECT_EQ(t.access(10), 2u);
  EXPECT_EQ(t.refresh_slots(), 1u);
  // Access at 25: slot at 20 finished at 22 -> no wait.
  EXPECT_EQ(t.access(25), 0u);
  EXPECT_EQ(t.refresh_slots(), 2u);
}

TEST(BankTimer, RefreshInterferenceClampedToFeasibleShare) {
  // Configured interference (4 cycles) exceeds the slot spacing (1 cycle);
  // a real pipelined refresh engine can sustain its schedule, so the
  // effective interference is clamped to 90% of the spacing: the bank stays
  // ~90% refresh-busy instead of diverging.
  BankTimer t(4, 1);
  t.set_refresh_spacing(1.0, 0);
  const cycle_t wait = t.access(1000);
  EXPECT_LE(wait, 2u);  // schedule keeps up; no unbounded backlog
  EXPECT_GE(t.refresh_slots(), 999u);
}

TEST(BankTimer, DemandBacklogIsBounded) {
  // Demand alone can over-subscribe a bank; the queueing penalty is capped
  // so saturated configurations stay painful but finite.
  BankTimer t(1, 100);
  cycle_t max_wait = 0;
  for (cycle_t now = 0; now < 3000; ++now) {
    max_wait = std::max(max_wait, t.access(now));
  }
  EXPECT_GT(max_wait, 500u);
  EXPECT_LE(max_wait, 1100u);
}

TEST(BankTimer, SpacingChangeTakesEffect) {
  BankTimer t(1, 1);
  t.set_refresh_spacing(5.0, 0);
  (void)t.access(50);
  const std::uint64_t before = t.refresh_slots();
  t.set_refresh_spacing(kInf, 50);  // disable refresh
  (void)t.access(1000);
  EXPECT_EQ(t.refresh_slots(), before);
}

TEST(BankTimer, RejectsBadParameters) {
  EXPECT_THROW(BankTimer(-1, 1), std::invalid_argument);
  EXPECT_THROW(BankTimer(std::nan(""), 1), std::invalid_argument);
  EXPECT_THROW(BankTimer(1, 0), std::invalid_argument);
  BankTimer t(1, 1);
  EXPECT_THROW(t.set_refresh_spacing(0.0, 0), std::invalid_argument);
  EXPECT_THROW(t.set_refresh_spacing(-1.0, 0), std::invalid_argument);
}

// Zero refresh occupancy keeps the refresh schedule (slots are still
// counted) but makes it invisible to demand timing: every wait equals that
// of a bank with no refresh at all, queue-pressure term included.
TEST(BankTimer, ZeroRefreshOccupancyLeavesTimingUnchanged) {
  BankTimer refreshed(0, 3, 2.0);
  BankTimer idle(0, 3, 2.0);
  refreshed.set_refresh_spacing(7.0, 0);
  Rng rng(5);
  cycle_t now = 0;
  for (int i = 0; i < 20000; ++i) {
    now += rng.below(6);
    ASSERT_EQ(refreshed.access(now), idle.access(now)) << "access " << i;
  }
  EXPECT_GT(refreshed.refresh_slots(), 0u);
  EXPECT_EQ(idle.refresh_slots(), 0u);
}

// Naive reference: serve refresh slots one by one, mirroring the production
// model's feasibility clamp and backlog bound.
class ReferenceBank {
 public:
  ReferenceBank(double r_occ, double a_occ) : r_occ_(r_occ), a_occ_(a_occ) {}
  void set_spacing(double spacing, double now) {
    drain(now);
    spacing_ = spacing;
    eff_occ_ = std::min(r_occ_, 0.9 * spacing);
    next_slot_ = now + spacing;
  }
  std::uint64_t access(double now) {
    drain(now);
    free_at_ = std::min(free_at_, now + 1000.0);
    const double wait = std::max(0.0, free_at_ - now);
    free_at_ = std::max(free_at_, now) + a_occ_;
    return static_cast<std::uint64_t>(wait);
  }

 private:
  void drain(double now) {
    while (next_slot_ <= now) {
      free_at_ = std::max(free_at_, next_slot_) + eff_occ_;
      next_slot_ += spacing_;
    }
  }
  double r_occ_, a_occ_;
  double eff_occ_ = 0.0;
  double spacing_ = kInf, next_slot_ = kInf, free_at_ = 0.0;
};

struct BankPropertyCase {
  std::uint32_t r_occ;
  std::uint32_t a_occ;
  double spacing;
};

class BankProperty : public ::testing::TestWithParam<BankPropertyCase> {};

TEST_P(BankProperty, ClosedFormMatchesNaiveReference) {
  const auto p = GetParam();
  BankTimer fast(p.r_occ, p.a_occ);
  ReferenceBank slow(p.r_occ, p.a_occ);
  fast.set_refresh_spacing(p.spacing, 0);
  slow.set_spacing(p.spacing, 0);

  esteem::Rng rng(p.r_occ * 131 + p.a_occ * 17 + 5);
  cycle_t now = 0;
  for (int i = 0; i < 3000; ++i) {
    now += rng.below(40);  // bursty arrivals with idle gaps
    const auto got = static_cast<double>(fast.access(now));
    const auto want = static_cast<double>(slow.access(static_cast<double>(now)));
    // +-1 cycle: the closed form computes n*occ while the reference
    // accumulates occ n times; for non-representable occupancies the two
    // roundings can differ at a floor boundary.
    ASSERT_NEAR(got, want, 1.0) << "at cycle " << now;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, BankProperty,
    ::testing::Values(BankPropertyCase{1, 2, 7.5}, BankPropertyCase{1, 1, 1.5},
                      BankPropertyCase{2, 4, 3.0}, BankPropertyCase{3, 1, 10.0},
                      BankPropertyCase{4, 2, 2.0},   // overloaded refresh
                      BankPropertyCase{1, 2, 1e9})); // nearly no refresh

TEST(BankGroup, MapsSetsAcrossBanks) {
  BankGroup g(4, 64, 1, 2);
  EXPECT_EQ(g.banks(), 4u);
  // Sets 0 and 4 share bank 0; set 1 uses bank 1.
  EXPECT_EQ(g.access(0, 10), 0u);
  EXPECT_EQ(g.access(4, 10), 2u);  // queued behind set 0's access
  EXPECT_EQ(g.access(1, 10), 0u);  // different bank: no wait
}

TEST(BankGroup, RefreshLoadSplitAcrossBanks) {
  BankGroup g(4, 64, 1, 1);
  // 65536 lines per 100k cycles over 4 banks: spacing ~6.1 cycles per bank.
  g.set_refresh_load(65536.0, 100000.0, 0);
  cycle_t total_wait = 0;
  for (cycle_t t = 1000; t < 2000; t += 10) total_wait += g.access(0, t);
  EXPECT_GT(g.total_refresh_slots(), 100u);
  // Zero load disables injection.
  BankGroup quiet(4, 64, 1, 1);
  quiet.set_refresh_load(0.0, 100000.0, 0);
  for (cycle_t t = 1000; t < 2000; t += 10) EXPECT_EQ(quiet.access(0, t), 0u);
}

TEST(BankTimer, AnalyticDelayGrowsWithRefreshShare) {
  // With queue pressure enabled, a mid-utilization refresh schedule adds a
  // smooth delay even when the explicit busy window happens to be free.
  BankTimer light(4.0, 4, 1.0);
  BankTimer heavy(4.0, 4, 1.0);
  light.set_refresh_spacing(40.0, 0);  // 10% refresh share
  heavy.set_refresh_spacing(5.0, 0);   // 80% refresh share
  cycle_t light_total = 0, heavy_total = 0;
  cycle_t accesses = 0;
  for (cycle_t t = 1000; t < 40000; t += 400) {
    light_total += light.access(t);
    heavy_total += heavy.access(t);
    ++accesses;
  }
  // Heavy: 80% refresh share -> ~8-cycle analytic delay per access.
  // Light: 10% share -> well under a cycle.
  EXPECT_GT(heavy_total, 2 * light_total);
  EXPECT_GE(heavy_total / accesses, 8u);
  EXPECT_LE(light_total / accesses, 5u);
}

TEST(BankTimer, ZeroQueuePressureDisablesAnalyticDelay) {
  BankTimer t(4.0, 4, 0.0);
  t.set_refresh_spacing(5.0, 0);
  // Sparse accesses: the deterministic window is drained between accesses,
  // so with no analytic term the wait is bounded by one refresh slot.
  for (cycle_t now = 1000; now < 20000; now += 500) {
    EXPECT_LE(t.access(now), 4u);
  }
}

// Pins every wait of a random arrival sequence with the analytic term on:
// bursts and lulls roll the demand window at many utilizations, and the
// refresh spacing changes mid-run, including to no refresh and to a
// schedule that drives the clamped utilization to its 0.97 cap. The pinned
// digest was recorded on the model that recomputed the analytic delay on
// every access.
TEST(BankTimer, WaitsPinnedAcrossSpacingChangesAndWindowRolls) {
  constexpr std::array<double, 6> kSpacings{37.5, 9.0, kInf, 120.0, 4.0, 15.25};
  BankTimer t(3.5, 2, 1.0);
  Rng rng(2024);
  cycle_t now = 0;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  cycle_t total = 0;
  std::uint64_t nonzero = 0;
  for (int i = 0; i < 60'000; ++i) {
    if (i % 5'000 == 0) t.set_refresh_spacing(kSpacings[(i / 5'000) % kSpacings.size()], now);
    now += rng.chance(0.6) ? rng.below(4) : rng.below(60);
    const cycle_t wait = t.access(now);
    digest = (digest ^ wait) * 0x100000001b3ULL;
    total += wait;
    nonzero += wait != 0;
  }
  EXPECT_EQ(total, 8'229'891u);
  EXPECT_EQ(nonzero, 40'320u);
  EXPECT_EQ(digest, 9'519'519'253'804'441'302ULL);
}

TEST(BankGroup, RejectsBadShape) {
  EXPECT_THROW(BankGroup(3, 64, 1, 1), std::invalid_argument);
  EXPECT_THROW(BankGroup(0, 64, 1, 1), std::invalid_argument);
  EXPECT_THROW(BankGroup(8, 4, 1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace esteem::cache
