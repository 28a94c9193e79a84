// Tests for the Refrint polyphase policies (RPV and RPD).
#include <gtest/gtest.h>

#include "cache/cache.hpp"
#include "refrint/rpv.hpp"

namespace esteem::refrint {
namespace {

// 4 phases over a 100-cycle retention: phase windows [0,25), [25,50), ...;
// the boundary at time t opens phase (t/25) % 4.

TEST(RPV, UntouchedValidLineRefreshedOncePerPeriod) {
  PolyphaseValidPolicy p(4, 4, 4, 100);
  p.on_fill(0, 0, 42, 10);  // tagged phase 0
  // Phase-0 boundaries are at t = 100, 200, ... (t/25 % 4 == 0).
  EXPECT_EQ(p.advance(99), 0u);
  EXPECT_EQ(p.advance(100), 1u);
  EXPECT_EQ(p.advance(199), 0u);
  EXPECT_EQ(p.advance(200), 1u);
}

TEST(RPV, TouchMovesDueBoundary) {
  PolyphaseValidPolicy p(4, 4, 4, 100);
  p.on_fill(0, 0, 42, 10);   // phase 0
  EXPECT_EQ(p.advance(60), 0u);
  p.on_touch(0, 0, 60);      // phase 2: refresh moves to t=150
  EXPECT_EQ(p.advance(100), 0u);  // skipped at the phase-0 boundary
  EXPECT_EQ(p.advance(150), 1u);  // due at the next phase-2 boundary
}

TEST(RPV, HotLineNeverRefreshed) {
  PolyphaseValidPolicy p(4, 4, 4, 100);
  p.on_fill(0, 0, 42, 0);
  std::uint64_t refreshed = 0;
  // Touch every 10 cycles (faster than the 25-cycle phase): the tag always
  // tracks the current phase, so no boundary ever finds the line due.
  for (cycle_t t = 10; t <= 1000; t += 10) {
    refreshed += p.advance(t);
    p.on_touch(0, 0, t);
  }
  EXPECT_EQ(refreshed, 0u);
}

TEST(RPV, InvalidLinesNotRefreshed) {
  PolyphaseValidPolicy p(2, 2, 4, 100);
  p.on_fill(0, 0, 1, 0);
  p.on_fill(0, 1, 2, 0);
  p.on_invalidate(0, 0, false, 5);
  EXPECT_EQ(p.advance(100), 1u);
  EXPECT_EQ(p.valid_lines(), 1u);
}

TEST(RPV, PhaseCountsConserved) {
  PolyphaseValidPolicy p(8, 4, 4, 100);
  p.on_fill(0, 0, 1, 3);    // phase 0
  p.on_fill(1, 0, 2, 30);   // phase 1
  p.on_fill(2, 0, 3, 55);   // phase 2
  p.on_touch(1, 0, 80);     // moves to phase 3
  std::uint64_t total = 0;
  for (std::uint32_t ph = 0; ph < 4; ++ph) total += p.phase_count(ph);
  EXPECT_EQ(total, p.valid_lines());
  EXPECT_EQ(p.phase_count(0), 1u);
  EXPECT_EQ(p.phase_count(1), 0u);
  EXPECT_EQ(p.phase_count(3), 1u);
}

TEST(RPV, RefreshDemandTracksLastPeriod) {
  PolyphaseValidPolicy p(4, 4, 4, 100);
  p.on_fill(0, 0, 1, 0);
  p.on_fill(0, 1, 2, 0);
  EXPECT_DOUBLE_EQ(p.refresh_lines_per_period(), 0.0);  // nothing observed yet
  p.advance(200);
  // Both lines refreshed once per period; the rolling window holds the last
  // 4 phase boundaries = one retention period.
  EXPECT_DOUBLE_EQ(p.refresh_lines_per_period(), 2.0);
}

TEST(RPV, ValidatesConstruction) {
  EXPECT_THROW(PolyphaseValidPolicy(4, 4, 0, 100), std::invalid_argument);
  EXPECT_THROW(PolyphaseValidPolicy(4, 4, 200, 100), std::invalid_argument);
}

TEST(RPV, RejectsMorePhasesThanOneByteTagsHold) {
  EXPECT_NO_THROW(PolyphaseValidPolicy(4, 4, 256, 256 * 10));
  EXPECT_THROW(PolyphaseValidPolicy(4, 4, 257, 257 * 10), std::invalid_argument);
  EXPECT_THROW(PolyphaseValidPolicy(4, 4, 300, 300 * 10), std::invalid_argument);
}

TEST(RPV, HighestPhaseTagCountedAt256Phases) {
  // 256 phases of 10 cycles: t=2555 lies in phase 255, t=2565 wraps to 0.
  PolyphaseValidPolicy p(4, 4, 256, 256 * 10);
  p.on_fill(0, 0, 42, 2555);
  EXPECT_EQ(p.phase_count(255), 1u);
  p.on_touch(0, 0, 2565);
  EXPECT_EQ(p.phase_count(255), 0u);
  EXPECT_EQ(p.phase_count(0), 1u);
  p.on_invalidate(0, 0, false, 2570);
  EXPECT_EQ(p.phase_count(0), 0u);
  EXPECT_EQ(p.valid_lines(), 0u);
}

TEST(RPD, RefreshesDirtyInvalidatesClean) {
  cache::SetAssocCache c({4, 2});
  auto policy = std::make_unique<PolyphaseDirtyPolicy>(c, 4, 100);
  PolyphaseDirtyPolicy& p = *policy;
  c.set_listener(&p);

  c.access(0, true, 10);   // dirty, phase 0
  c.access(1, false, 10);  // clean, phase 0
  EXPECT_EQ(c.valid_lines(), 2u);

  // Phase-0 boundary at t=100: dirty line refreshed, clean line evicted.
  EXPECT_EQ(p.advance(100), 1u);
  EXPECT_EQ(c.valid_lines(), 1u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(1));
  EXPECT_EQ(p.valid_lines(), 1u);  // policy view stays consistent
}

TEST(RPD, TouchedCleanLineSurvivesBoundary) {
  cache::SetAssocCache c({4, 2});
  PolyphaseDirtyPolicy p(c, 4, 100);
  c.set_listener(&p);

  c.access(1, false, 10);          // clean, phase 0
  EXPECT_EQ(p.advance(99), 0u);
  c.access(1, false, 99);          // touched in phase 3
  EXPECT_EQ(p.advance(100), 0u);   // not due at phase-0 boundary anymore
  EXPECT_TRUE(c.contains(1));
  // Due at the next phase-3 boundary (t=175): clean -> invalidated then.
  EXPECT_EQ(p.advance(175), 0u);
  EXPECT_FALSE(c.contains(1));
}

}  // namespace
}  // namespace esteem::refrint
