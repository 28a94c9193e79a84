// Tests for ESTEEM's Algorithm 1, including the paper's worked example.
#include <gtest/gtest.h>

#include <vector>

#include "core/algorithm.hpp"

namespace esteem::core {
namespace {

// The example from §3.1: hits per LRU position for an 8-way cache.
const std::vector<std::uint64_t> kPaperExample{10816, 4645, 2140, 501,
                                               217,   113,  63,   11};

TEST(Algorithm, PaperExampleAlpha097) {
  AlgorithmConfig cfg;
  cfg.alpha = 0.97;
  cfg.a_min = 1;  // isolate the alpha computation
  const ModuleDecision d = decide_module(kPaperExample, 8, cfg);
  EXPECT_EQ(d.active_ways, 4u);  // "If alpha = 0.97, then we get X = 4"
  EXPECT_FALSE(d.non_lru);
}

TEST(Algorithm, PaperExampleAlpha095) {
  AlgorithmConfig cfg;
  cfg.alpha = 0.95;
  cfg.a_min = 1;
  const ModuleDecision d = decide_module(kPaperExample, 8, cfg);
  EXPECT_EQ(d.active_ways, 3u);  // "if alpha = 0.95, then X = 3"
}

TEST(Algorithm, AminFloorApplies) {
  AlgorithmConfig cfg;
  cfg.alpha = 0.5;  // alpha alone would keep a single way
  cfg.a_min = 3;
  const ModuleDecision d = decide_module(kPaperExample, 8, cfg);
  EXPECT_EQ(d.active_ways, 3u);
}

TEST(Algorithm, ZeroHitsKeepsAmin) {
  const std::vector<std::uint64_t> zero(16, 0);
  AlgorithmConfig cfg;
  cfg.alpha = 0.97;
  cfg.a_min = 3;
  const ModuleDecision d = decide_module(zero, 16, cfg);
  EXPECT_EQ(d.active_ways, 3u);
  EXPECT_FALSE(d.non_lru);  // no anomalies in an all-zero histogram
}

TEST(Algorithm, NonLruDetection) {
  // Monotone decreasing: LRU-friendly.
  EXPECT_FALSE(is_non_lru(kPaperExample));
  // Sawtooth with >= A/4 = 2 rises for 8 positions.
  const std::vector<std::uint64_t> saw{100, 50, 200, 40, 150, 30, 120, 10};
  EXPECT_TRUE(is_non_lru(saw));
  // A single rise among 8 positions: not enough anomalies.
  const std::vector<std::uint64_t> one_rise{100, 90, 80, 70, 60, 50, 40, 45};
  EXPECT_FALSE(is_non_lru(one_rise));
  // Degenerate sizes never flag.
  EXPECT_FALSE(is_non_lru(std::vector<std::uint64_t>{5}));
}

TEST(Algorithm, NonLruGuardLimitsTurnoff) {
  // Multi-modal hits concentrated at deep positions (16-way).
  std::vector<std::uint64_t> hits(16, 0);
  hits[3] = 1000;
  hits[6] = 900;
  hits[9] = 800;
  hits[12] = 700;
  AlgorithmConfig cfg;
  cfg.alpha = 0.5;
  cfg.a_min = 3;
  ASSERT_TRUE(is_non_lru(hits));
  const ModuleDecision d = decide_module(hits, 16, cfg);
  EXPECT_TRUE(d.non_lru);
  // For a non-LRU module, at most 1 way is turned off (§3.1).
  EXPECT_EQ(d.active_ways, 15u);
}

TEST(Algorithm, NonLruGuardKeepsAminFloor) {
  // The same non-LRU module with A_min = A: no way may be turned off.
  std::vector<std::uint64_t> hits(16, 0);
  hits[3] = 1000;
  hits[6] = 900;
  hits[9] = 800;
  hits[12] = 700;
  AlgorithmConfig cfg;
  cfg.alpha = 0.5;
  cfg.a_min = 16;
  const ModuleDecision d = decide_module(hits, 16, cfg);
  EXPECT_TRUE(d.non_lru);
  EXPECT_EQ(d.active_ways, 16u);
}

TEST(Algorithm, NonLruGuardCanBeDisabled) {
  std::vector<std::uint64_t> hits(16, 0);
  hits[3] = 1000;
  hits[6] = 900;
  hits[9] = 800;
  hits[12] = 700;
  AlgorithmConfig cfg;
  cfg.alpha = 0.5;
  cfg.a_min = 3;
  cfg.nonlru_guard = false;
  const ModuleDecision d = decide_module(hits, 16, cfg);
  EXPECT_FALSE(d.non_lru);
  EXPECT_LT(d.active_ways, 15u);
}

TEST(Algorithm, AllHitsInMruKeepsAmin) {
  std::vector<std::uint64_t> hits(16, 0);
  hits[0] = 123456;
  AlgorithmConfig cfg;
  cfg.alpha = 0.99;
  cfg.a_min = 4;
  EXPECT_EQ(decide_module(hits, 16, cfg).active_ways, 4u);
}

TEST(Algorithm, AlphaOneKeepsAllHitPositions) {
  AlgorithmConfig cfg;
  cfg.alpha = 1.0;
  cfg.a_min = 1;
  // Every position has hits, so alpha = 1 needs all 8 ways.
  EXPECT_EQ(decide_module(kPaperExample, 8, cfg).active_ways, 8u);
}

TEST(Algorithm, ValidatesInput) {
  AlgorithmConfig cfg;
  EXPECT_THROW(decide_module(kPaperExample, 16, cfg), std::invalid_argument);
  cfg.a_min = 0;
  EXPECT_THROW(decide_module(kPaperExample, 8, cfg), std::invalid_argument);
  cfg.a_min = 9;
  EXPECT_THROW(decide_module(kPaperExample, 8, cfg), std::invalid_argument);
}

TEST(Algorithm, MultiModuleDecision) {
  Histogram lru_friendly(8);
  for (std::size_t i = 0; i < 8; ++i) lru_friendly.add(i, kPaperExample[i]);
  Histogram empty(8);
  std::vector<Histogram> modules{lru_friendly, empty};

  AlgorithmConfig cfg;
  cfg.alpha = 0.97;
  cfg.a_min = 2;
  const auto decisions = esteem_decide(modules, 8, cfg);
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_EQ(decisions[0].active_ways, 4u);
  EXPECT_EQ(decisions[1].active_ways, 2u);
}

// Property: active ways are monotone non-decreasing in alpha, bounded by
// [A_min, A].
class AlphaMonotonicity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(AlphaMonotonicity, MoreCoverageNeedsMoreWays) {
  const std::uint32_t a_min = GetParam();
  std::uint32_t prev = 0;
  for (double alpha : {0.50, 0.80, 0.90, 0.95, 0.97, 0.99, 1.0}) {
    AlgorithmConfig cfg;
    cfg.alpha = alpha;
    cfg.a_min = a_min;
    const std::uint32_t x = decide_module(kPaperExample, 8, cfg).active_ways;
    EXPECT_GE(x, a_min);
    EXPECT_LE(x, 8u);
    EXPECT_GE(x, prev) << "alpha " << alpha;
    prev = x;
  }
}

INSTANTIATE_TEST_SUITE_P(AminValues, AlphaMonotonicity, ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace esteem::core
