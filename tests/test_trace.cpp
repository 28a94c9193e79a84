// Unit tests for src/trace: patterns, benchmark profiles, workload lists.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "trace/patterns.hpp"
#include "trace/spec_profiles.hpp"
#include "trace/workloads.hpp"

namespace esteem::trace {
namespace {

const GeneratorContext kCtx{4096, 64};

TEST(Streaming, SequentialAndWraps) {
  StreamingPattern p(100, 4);
  EXPECT_EQ(p.next_block(), 100u);
  EXPECT_EQ(p.next_block(), 101u);
  EXPECT_EQ(p.next_block(), 102u);
  EXPECT_EQ(p.next_block(), 103u);
  EXPECT_EQ(p.next_block(), 100u);  // wrapped
}

TEST(Streaming, StrideRespected) {
  StreamingPattern p(0, 8, 2);
  EXPECT_EQ(p.next_block(), 0u);
  EXPECT_EQ(p.next_block(), 2u);
  EXPECT_EQ(p.next_block(), 4u);
  EXPECT_EQ(p.next_block(), 6u);
  EXPECT_EQ(p.next_block(), 0u);
}

TEST(Streaming, RejectsZeroStride) {
  EXPECT_THROW(StreamingPattern(0, 8, 0), std::invalid_argument);
}

TEST(PointerChase, FullCyclePermutation) {
  PointerChasePattern p(0, 64, 7);
  std::set<block_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(p.next_block());
  EXPECT_EQ(seen.size(), 64u);  // Hull-Dobell LCG visits every block once
  EXPECT_LT(*seen.rbegin(), 64u);
}

TEST(PointerChase, DeterministicPerSeed) {
  PointerChasePattern a(0, 128, 3), b(0, 128, 3), c(0, 128, 4);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const block_t x = a.next_block();
    EXPECT_EQ(x, b.next_block());
    any_diff |= (x != c.next_block());
  }
  EXPECT_TRUE(any_diff);
}

TEST(MultiScan, SweepsEachDepthRegion) {
  const GeneratorContext ctx{16, 64};
  MultiScanPattern p(0, {2, 3}, ctx, 1);
  // Depth 2: region of 32 blocks, then depth 3: region of 48 blocks.
  for (block_t i = 0; i < 32; ++i) EXPECT_EQ(p.next_block(), i);
  for (block_t i = 0; i < 48; ++i) EXPECT_EQ(p.next_block(), i);
  // Back to depth 2.
  EXPECT_EQ(p.next_block(), 0u);
}

TEST(MultiScan, RejectsBadDepths) {
  EXPECT_THROW(MultiScanPattern(0, {}, kCtx), std::invalid_argument);
  EXPECT_THROW(MultiScanPattern(0, {0}, kCtx), std::invalid_argument);
}

TEST(Mixture, RespectsWeights) {
  std::vector<std::unique_ptr<BlockPattern>> kids;
  kids.push_back(std::make_unique<StreamingPattern>(0, 1));      // always block 0
  kids.push_back(std::make_unique<StreamingPattern>(1000, 1));   // always block 1000
  MixturePattern p(std::move(kids), {0.9, 0.1}, 42);
  int first = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) first += (p.next_block() == 0);
  EXPECT_NEAR(static_cast<double>(first) / n, 0.9, 0.02);
}

TEST(Mixture, ValidatesInput) {
  std::vector<std::unique_ptr<BlockPattern>> kids;
  kids.push_back(std::make_unique<StreamingPattern>(0, 1));
  EXPECT_THROW(MixturePattern(std::move(kids), {0.5, 0.5}, 1), std::invalid_argument);
  std::vector<std::unique_ptr<BlockPattern>> kids2;
  kids2.push_back(std::make_unique<StreamingPattern>(0, 1));
  EXPECT_THROW(MixturePattern(std::move(kids2), {0.0}, 1), std::invalid_argument);
}

TEST(Phased, SwitchesChildren) {
  std::vector<std::unique_ptr<BlockPattern>> kids;
  kids.push_back(std::make_unique<StreamingPattern>(0, 1));
  kids.push_back(std::make_unique<StreamingPattern>(7, 1));
  PhasedPattern p(std::move(kids), 3);
  EXPECT_EQ(p.next_block(), 0u);
  EXPECT_EQ(p.next_block(), 0u);
  EXPECT_EQ(p.next_block(), 0u);
  EXPECT_EQ(p.next_block(), 7u);
  EXPECT_EQ(p.next_block(), 7u);
  EXPECT_EQ(p.next_block(), 7u);
  EXPECT_EQ(p.next_block(), 0u);  // round-robin back
}

TEST(NestedWorkingSet, LevelsAreNestedAndInnerHot) {
  // ws 1024, 3 levels at size ratio 0.25: levels of 1024, 256, 64 blocks.
  NestedWorkingSetPattern p(0, 1024, 3, 0.25, 3.0, 42);
  std::uint64_t inner = 0, mid = 0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    const block_t b = p.next_block();
    ASSERT_LT(b, 1024u);
    inner += (b < 64);
    mid += (b < 256);
  }
  // Weights 1 : 3 : 9 -> inner level picked ~9/13 of the time, plus the
  // fraction of outer-level draws landing inside it.
  EXPECT_GT(static_cast<double>(inner) / n, 0.6);
  EXPECT_GT(mid, inner);
}

TEST(NestedWorkingSet, Validation) {
  EXPECT_THROW(NestedWorkingSetPattern(0, 64, 0, 0.5, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(NestedWorkingSetPattern(0, 64, 3, 1.5, 2.0, 1), std::invalid_argument);
  EXPECT_THROW(NestedWorkingSetPattern(0, 64, 3, 0.5, 0.0, 1), std::invalid_argument);
}

TEST(TemporalReuse, ReusesRecentBlocks) {
  // Child streams fresh blocks; with reuse_prob 0.9 about 90% of accesses
  // must revisit one of the last 8 distinct blocks.
  auto child = std::make_unique<StreamingPattern>(0, 1'000'000);
  TemporalReusePattern p(std::move(child), 0.9, 8, 42);
  block_t max_seen = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) max_seen = std::max(max_seen, p.next_block());
  // Fresh draws happen ~10% of the time, so the stream advanced ~n/10.
  EXPECT_NEAR(static_cast<double>(max_seen), n * 0.1, n * 0.02);
}

TEST(TemporalReuse, ReusedBlocksComeFromWindow) {
  auto child = std::make_unique<StreamingPattern>(0, 1'000'000);
  TemporalReusePattern p(std::move(child), 0.7, 16, 7);
  block_t newest = 0;
  for (int i = 0; i < 20000; ++i) {
    const block_t b = p.next_block();
    if (b > newest) {
      newest = b;  // fresh block from the stream
    } else {
      // Reuse: must be one of the 16 most recent distinct blocks.
      EXPECT_GE(b + 16, newest);
    }
  }
}

TEST(TemporalReuse, ZeroProbPassesThrough) {
  auto child = std::make_unique<StreamingPattern>(0, 100);
  TemporalReusePattern p(std::move(child), 0.0, 4, 1);
  for (block_t i = 0; i < 100; ++i) EXPECT_EQ(p.next_block(), i);
}

TEST(TemporalReuse, Validation) {
  EXPECT_THROW(TemporalReusePattern(nullptr, 0.5, 4, 1), std::invalid_argument);
  EXPECT_THROW(
      TemporalReusePattern(std::make_unique<StreamingPattern>(0, 4), 1.0, 4, 1),
      std::invalid_argument);
  EXPECT_THROW(
      TemporalReusePattern(std::make_unique<StreamingPattern>(0, 4), 0.5, 0, 1),
      std::invalid_argument);
}

TEST(MultiScan, NarrowSpanConfinesSets) {
  // Span of 4 sets in a 16-set cache: every generated block maps to sets 0-3.
  const GeneratorContext ctx{16, 64};
  MultiScanPattern p(0, {2, 3}, ctx, 1, 4);
  for (int i = 0; i < 200; ++i) {
    const block_t b = p.next_block();
    EXPECT_LT(b % 16, 4u) << "block " << b;
  }
}

TEST(InstructionMixer, GapMeanMatchesMemRatio) {
  auto pat = std::make_unique<StreamingPattern>(0, 1024);
  InstructionMixer mixer(std::move(pat), 0.25, 0.3, 42);
  double gaps = 0.0;
  int stores = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const MemRef r = mixer.next();
    gaps += r.gap;
    stores += r.is_store;
  }
  EXPECT_NEAR(gaps / n, 3.0, 0.15);  // mean gap = 1/0.25 - 1
  EXPECT_NEAR(static_cast<double>(stores) / n, 0.3, 0.02);
}

TEST(InstructionMixer, FullMemRatioHasZeroGaps) {
  auto pat = std::make_unique<StreamingPattern>(0, 16);
  InstructionMixer mixer(std::move(pat), 1.0, 0.0, 1);
  for (int i = 0; i < 100; ++i) {
    const MemRef r = mixer.next();
    EXPECT_EQ(r.gap, 0u);
    EXPECT_FALSE(r.is_store);
  }
}

// The gap the inversion method gives a uniform draw u, written out here
// independently of InstructionMixer: floor(log(u) / log(1 - p)) with u
// clamped to 1e-12 and the gap capped at 1e6.
std::uint32_t log_inversion_gap(double u, double mem_ratio) {
  const double q = std::log(std::max(u, 1e-12)) / std::log(1.0 - mem_ratio);
  return q >= 1e6 ? 1'000'000u : static_cast<std::uint32_t>(q);
}

// The threshold table must give the log inversion's gap for every draw the
// generator can make. Draws are k * 2^-53. glibc's log is within 1 ulp, so
// only the few hundred grid points nearest a threshold could round across
// it; this test checks thousands either side of each threshold, plus
// millions of random draws, for every profile's mem_ratio and three edge
// ratios.
TEST(InstructionMixer, GapTableMatchesLogInversion) {
  constexpr double kGrid = 0x1.0p-53;  // spacing of Rng::uniform's outputs
  constexpr std::int64_t kLastStep = (std::int64_t{1} << 53) - 1;
  constexpr std::int64_t kNearSteps = 4096;
  constexpr int kRandomDraws = 10'000'000;

  std::set<double> ratios{0.999, 1e-6};
  for (const BenchmarkProfile& p : all_profiles()) ratios.insert(p.mem_ratio);
  ASSERT_GE(ratios.size(), 5u);
  for (const double ratio : ratios) {
    InstructionMixer mixer(std::make_unique<StreamingPattern>(0, 1), ratio, 0.0, 1);
    const auto& table = mixer.gap_thresholds();
    ASSERT_TRUE(std::is_sorted(table.rbegin(), table.rend())) << "ratio " << ratio;
    EXPECT_GE(table.back(), 1e-12) << "ratio " << ratio;
    EXPECT_LE(table.front(), 1.0) << "ratio " << ratio;

    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
    double first_bad = -1.0;
    const auto check = [&](std::uint64_t k) {
      ++checked;
      const double u = static_cast<double>(k) * kGrid;
      if (mixer.gap_for(k) != log_inversion_gap(u, ratio)) {
        if (mismatches++ == 0) first_bad = u;
      }
    };
    for (const double t : table) {
      const auto k0 = static_cast<std::int64_t>(t / kGrid);
      const std::int64_t lo = std::max<std::int64_t>(0, k0 - kNearSteps);
      const std::int64_t hi = std::min(kLastStep, k0 + kNearSteps);
      for (std::int64_t k = lo; k <= hi; ++k) check(static_cast<std::uint64_t>(k));
    }
    Rng rng(0x5EED0000u + static_cast<std::uint64_t>(ratio * 1000));
    std::uint64_t fallbacks = 0;
    for (int i = 0; i < kRandomDraws; ++i) {
      const std::uint64_t k = draw53(rng());
      check(k);
      fallbacks += mixer.gap_for(k) >= InstructionMixer::kGapSteps;
    }
    EXPECT_EQ(mismatches, 0u) << "ratio " << ratio << ": first mismatch at u = " << first_bad
                              << " of " << checked << " draws";

    if (ratio == 0.999) {
      // log(1e-12) / log(0.001) = 4: gaps of 5 and more are unreachable,
      // so their thresholds sit at the clamp.
      EXPECT_EQ(table.back(), 1e-12);
      EXPECT_GT(table[3], 1e-12);
    }
    if (ratio == 1e-6) {
      EXPECT_GT(fallbacks, kRandomDraws * 99 / 100);  // mean gap is 1e6 - 1
    }
  }
}

// The gap cuts are the thresholds on the 53-bit draw: gap_for(k) >= g
// exactly when k < gap_cuts()[g - 1], which must agree with the clamped
// double compare max(u, 1e-12) < T_g on both sides of every cut. At 0.999
// the thresholds of gaps 5-8 sit at the clamp (1e-12), whose cut is 0: no
// clamped draw is below it, although draws up to ceil(1e-12 * 2^53) - 1 are.
TEST(InstructionMixer, GapCutsMatchClampedThresholds) {
  constexpr double kGrid = 0x1.0p-53;
  for (const double ratio : {0.999, 0.3, 0.02}) {
    InstructionMixer mixer(std::make_unique<StreamingPattern>(0, 1), ratio, 0.0, 1);
    const auto& table = mixer.gap_thresholds();
    const auto& cuts = mixer.gap_cuts();
    const std::uint64_t clamp_cut = draw_cut(1e-12);
    std::vector<std::uint64_t> probes{0, 1, clamp_cut - 1, clamp_cut};
    int clamped = 0;
    for (std::size_t g = 0; g < InstructionMixer::kGapSteps; ++g) {
      if (table[g] == 1e-12) {
        ++clamped;
        EXPECT_EQ(cuts[g], 0u) << "ratio " << ratio << " gap " << g + 1;
      }
      if (cuts[g] > 0) probes.push_back(cuts[g] - 1);
      probes.push_back(cuts[g]);
    }
    if (ratio == 0.999) {
      EXPECT_EQ(clamped, 4);
    }
    for (const std::uint64_t k : probes) {
      const double u = static_cast<double>(k) * kGrid;
      for (std::size_t g = 0; g < InstructionMixer::kGapSteps; ++g) {
        EXPECT_EQ(k < cuts[g], std::max(u, 1e-12) < table[g])
            << "ratio " << ratio << " gap " << g + 1 << " k " << k;
      }
      EXPECT_EQ(mixer.gap_for(k), log_inversion_gap(u, ratio)) << "ratio " << ratio << " k " << k;
    }
  }
}

// next() draws the store flag, then the gap draw, which it maps through the
// table; at mem_ratio 1 it draws no gap at all.
TEST(InstructionMixer, NextDrawsStoreThenGap) {
  for (const double ratio : {0.3, 1.0}) {
    InstructionMixer mixer(std::make_unique<StreamingPattern>(0, 64), ratio, 0.5, 99);
    Rng ref(99);
    for (int i = 0; i < 100'000; ++i) {
      const MemRef r = mixer.next();
      ASSERT_EQ(r.is_store, ref.chance(0.5)) << "ratio " << ratio << " ref " << i;
      const std::uint32_t want = ratio < 1.0 ? log_inversion_gap(ref.uniform(), ratio) : 0;
      ASSERT_EQ(r.gap, want) << "ratio " << ratio << " ref " << i;
    }
  }
}

TEST(InstructionMixer, ValidatesRatios) {
  EXPECT_THROW(
      InstructionMixer(std::make_unique<StreamingPattern>(0, 1), 0.0, 0.0, 1),
      std::invalid_argument);
  EXPECT_THROW(
      InstructionMixer(std::make_unique<StreamingPattern>(0, 1), 0.5, 1.5, 1),
      std::invalid_argument);
  EXPECT_THROW(InstructionMixer(nullptr, 0.5, 0.5, 1), std::invalid_argument);
}

TEST(Profiles, ThirtyFourUniqueBenchmarks) {
  const auto profiles = all_profiles();
  EXPECT_EQ(profiles.size(), 34u);
  std::unordered_set<std::string_view> names, acronyms;
  int hpc = 0, non_lru = 0, phased = 0;
  for (const auto& p : profiles) {
    EXPECT_TRUE(names.insert(p.name).second) << p.name;
    EXPECT_TRUE(acronyms.insert(p.acronym).second) << p.acronym;
    EXPECT_GT(p.mem_ratio, 0.0);
    EXPECT_LE(p.mem_ratio, 1.0);
    EXPECT_GE(p.store_ratio, 0.0);
    EXPECT_LE(p.store_ratio, 1.0);
    EXPECT_GT(p.ws_kb, 0.0);
    EXPECT_GE(p.phases, 1u);
    hpc += p.hpc;
    non_lru += p.non_lru;
    phased += (p.phases > 1);
  }
  EXPECT_EQ(hpc, 5);       // amg2013, comd, lulesh, nekbone, xsbench
  EXPECT_GE(non_lru, 2);   // omnetpp, xalancbmk (paper §3.1)
  EXPECT_GE(phased, 2);    // h264ref, gcc
}

TEST(Profiles, LookupByNameAndAcronym) {
  EXPECT_EQ(profile_by_name("h264ref").acronym, "H2");
  EXPECT_EQ(profile_by_name("H2").name, "h264ref");
  EXPECT_TRUE(profile_by_name("omnetpp").non_lru);
  EXPECT_TRUE(profile_by_name("xalancbmk").non_lru);
  EXPECT_THROW(profile_by_name("quake3"), std::out_of_range);
}

TEST(Profiles, GeneratorsBuildAndAreDeterministic) {
  for (const auto& p : all_profiles()) {
    auto a = make_generator(p, kCtx, 99);
    auto b = make_generator(p, kCtx, 99);
    ASSERT_NE(a, nullptr) << p.name;
    for (int i = 0; i < 200; ++i) {
      const MemRef ra = a->next();
      const MemRef rb = b->next();
      EXPECT_EQ(ra.block, rb.block) << p.name;
      EXPECT_EQ(ra.gap, rb.gap) << p.name;
      EXPECT_EQ(ra.is_store, rb.is_store) << p.name;
    }
  }
}

// BlockRng must be Rng's exact sequence whatever mix of calls drains it:
// single draws, the mapped draws, and peek/consume windows that straddle a
// refill (a peek longer than the buffered tail forces one).
TEST(BlockRng, MatchesRng) {
  for (std::uint64_t seed : {0ULL, 1ULL, 42ULL, 0xDEADBEEFULL}) {
    BlockRng b(seed);
    Rng r(seed);
    Rng ops(seed + 17);
    for (int i = 0; i < 20'000; ++i) {
      switch (ops.below(5)) {
        case 0:
          ASSERT_EQ(b(), r()) << "seed " << seed << " op " << i;
          break;
        case 1:
          ASSERT_EQ(static_cast<double>(draw53(b())) * 0x1.0p-53, r.uniform())
              << "seed " << seed << " op " << i;
          break;
        case 2: {
          const double p = ops.uniform();
          ASSERT_EQ(draw53(b()) < draw_cut(p), r.chance(p)) << "seed " << seed << " op " << i;
          break;
        }
        case 3: {
          // Bounds just above 2^63 reject about half the draws, so the
          // retry loop runs too.
          const std::uint64_t bound = ops.chance(0.3)
                                          ? (std::uint64_t{1} << 63) + 1 + ops.below(1000)
                                          : 1 + ops.below(200);
          ASSERT_EQ(b.below(bound), r.below(bound)) << "seed " << seed << " op " << i;
          break;
        }
        default: {
          const std::size_t n = ops.below(BlockRng::kBlock + 1);
          const std::size_t m = n == 0 ? 0 : ops.below(n + 1);
          const std::uint64_t* w = b.peek(n);
          Rng ahead = r;
          for (std::size_t k = 0; k < n; ++k) {
            ASSERT_EQ(w[k], ahead()) << "seed " << seed << " op " << i << " lane " << k;
          }
          b.consume(m);
          for (std::size_t k = 0; k < m; ++k) r();
        }
      }
    }
  }
}

// Each decision compares the 53-bit draw k with draw_cut(p) where the
// double code compared u = k * 2^-53 with p. A random draw lands on a cut
// with probability 2^-53, so the stream pins cannot see an off-by-one cut;
// the draws on both sides of each cut are checked here instead, for a coin
// (u < p) and for a pick (the first cumulative weight above u, so a weight
// equal to u is passed over).
TEST(DrawCut, BoundaryDrawsDecideAsTheDoubleCompare) {
  const std::array<double, 7> probs{0.0,  0x1.0p-53, 0.25, 0.3, 0.965,
                                    std::nextafter(1.0, 0.0), 1.0};
  for (const double p : probs) {
    const std::uint64_t cut = draw_cut(p);
    ASSERT_LE(cut, kDrawSpan) << "p " << p;
    const std::vector<std::uint64_t> cuts{cut, kDrawSpan};
    for (const std::uint64_t k : {cut - 1, cut}) {
      if (k >= kDrawSpan) continue;  // no such draw (cut 0 or cut 2^53)
      const double u = static_cast<double>(k) * 0x1.0p-53;
      EXPECT_EQ(k < cut, u < p) << "p " << p << " k " << k;
      EXPECT_EQ(pick_cut(cuts, k), p <= u ? 1u : 0u) << "p " << p << " k " << k;
    }
  }
  EXPECT_EQ(draw_cut(0.0), 0u);
  EXPECT_EQ(draw_cut(0x1.0p-53), 1u);
  EXPECT_EQ(draw_cut(0.25), std::uint64_t{1} << 51);
  EXPECT_EQ(draw_cut(0.3), static_cast<std::uint64_t>(0.3 * 0x1.0p53) + 1);
  EXPECT_EQ(draw_cut(std::nextafter(1.0, 0.0)), kDrawSpan - 1);
  EXPECT_EQ(draw_cut(1.0), kDrawSpan);
}

// Reference-stream pins. Each digest is an FNV-1a fold of every MemRef a
// generator emits; the constants were computed on the generator before its
// hot path was made branch-free, so any change to the stream (one reordered
// RNG draw, one off-by-one span) fails here rather than as a drifted figure.
std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v, std::size_t bytes) {
  char le[8];
  for (std::size_t i = 0; i < bytes; ++i) le[i] = static_cast<char>(v >> (8 * i));
  return fnv1a(h, std::string_view(le, bytes));
}

std::uint64_t fold_ref(std::uint64_t h, const MemRef& r) {
  h = fnv_fold(h, r.block, 8);
  h = fnv_fold(h, r.gap, 4);
  return fnv_fold(h, r.is_store ? 1 : 0, 1);
}

std::uint64_t next_digest(const BenchmarkProfile& p, std::uint64_t seed) {
  auto g = make_generator(p, kCtx, seed);
  std::uint64_t h = kFnv1aBasis;
  for (int i = 0; i < 50'000; ++i) h = fold_ref(h, g->next());
  return h;
}

// next() runs interleaved with skip(n): the skip sizes reach the Phased,
// Mixture and TemporalReuse skip routing, and the reads after each skip
// check the state it left behind.
std::uint64_t skip_digest(const BenchmarkProfile& p, std::uint64_t seed) {
  auto g = make_generator(p, kCtx, seed);
  std::uint64_t h = kFnv1aBasis;
  for (int round = 0; round < 3; ++round) {
    for (std::uint64_t n : {1ULL, 7ULL, 150'000ULL, 1'234'567ULL}) {
      for (int i = 0; i < 2'000; ++i) h = fold_ref(h, g->next());
      g->skip(n);
    }
  }
  for (int i = 0; i < 2'000; ++i) h = fold_ref(h, g->next());
  return h;
}

struct StreamPin {
  std::string_view profile;
  std::uint64_t seed;
  std::uint64_t next;
  std::uint64_t skip;
};

constexpr std::array<StreamPin, 68> kStreamPins{{
    {"astar", 42, 0x98A09F81EE5705A8ULL, 0xECADD3BAA0C12844ULL},
    {"bwaves", 42, 0xA986678781772CA7ULL, 0x215A4120C321AFF9ULL},
    {"bzip2", 42, 0xAB0467BE6FDD57A6ULL, 0x1D4217A91BE86A1AULL},
    {"cactusADM", 42, 0x574F12BE89F5F0ABULL, 0x915D6A124066C67CULL},
    {"calculix", 42, 0x20FB1E7A01A113D2ULL, 0xF35D9E1C1F8C04B0ULL},
    {"dealII", 42, 0xAC3AF09F0844EDC4ULL, 0xA84C3EF6C8A2CA01ULL},
    {"gamess", 42, 0x6CC3AC6516632801ULL, 0x9342567C19382EBCULL},
    {"gcc", 42, 0x37F5031F227137D1ULL, 0xB8F9DEB1EBA0CB93ULL},
    {"gemsFDTD", 42, 0x1E0E7D46BAFB6186ULL, 0x009081BECB8316FDULL},
    {"gobmk", 42, 0x0079F5421404B247ULL, 0x837EF2788E4FEA1CULL},
    {"gromacs", 42, 0x4F640D2483417C1CULL, 0x634D402A20327B94ULL},
    {"h264ref", 42, 0x4ACCBEABC774A744ULL, 0x066FBCAC3A00E92DULL},
    {"hmmer", 42, 0x66771A7210EAB4CBULL, 0xA435EE631FEC289BULL},
    {"lbm", 42, 0x27CAE59BB928DF16ULL, 0x7A690ED51EEA0F2BULL},
    {"leslie3d", 42, 0x30857E540C9B5515ULL, 0xC9E73666F8D9AF2CULL},
    {"libquantum", 42, 0xA9DB4817E7389AB9ULL, 0x8105F8D52A4F0527ULL},
    {"mcf", 42, 0x6ACC29EDFD2787B7ULL, 0x61DA48B489F73C34ULL},
    {"milc", 42, 0xC6EC777A88A83542ULL, 0x1BE11F096367F380ULL},
    {"namd", 42, 0x56993273A52D9D2DULL, 0x5BF2E66D79A78FFBULL},
    {"omnetpp", 42, 0x7177BF494045A39AULL, 0x9EF03B760C4BD8B2ULL},
    {"perlbench", 42, 0x331677C3A0169851ULL, 0x013AC5EEC3F0A006ULL},
    {"povray", 42, 0x87AB9074CB1CD1BAULL, 0x394A3988FE1C97EEULL},
    {"sjeng", 42, 0xFBC1F9E4E656907BULL, 0xE37DDA0F58A7CE67ULL},
    {"soplex", 42, 0x11846BCD843FD3AAULL, 0x7311CC5799B9B91CULL},
    {"sphinx", 42, 0xCBD510250BCD17FCULL, 0x418286E1EB838848ULL},
    {"tonto", 42, 0x93D738EB851CF00EULL, 0x4786D1B0ECFD884FULL},
    {"wrf", 42, 0x6C5EC1D0FD457FD3ULL, 0xE8761623AF652821ULL},
    {"xalancbmk", 42, 0x73574AA193A943A0ULL, 0x897756845F4509F1ULL},
    {"zeusmp", 42, 0x44349821F7168F15ULL, 0x8B9289F6CA23D00EULL},
    {"amg2013", 42, 0xD563EE205BA53B52ULL, 0xE16A55AC748317ECULL},
    {"comd", 42, 0x073CAD54A338B5CCULL, 0xC0C6568FE25BB301ULL},
    {"lulesh", 42, 0xE398EB607663119BULL, 0xB1D3D211B5CA595FULL},
    {"nekbone", 42, 0xFE80F643A82D8F6FULL, 0xEFEF305FF770DA7DULL},
    {"xsbench", 42, 0x36BD9B904D98F6D5ULL, 0xC7A889D281FAB024ULL},
    {"astar", 7, 0x10678BA0BB78BEB6ULL, 0x809E9965E3B7DDE3ULL},
    {"bwaves", 7, 0x56817B13C5C6292BULL, 0xC6F777BDE5C3BBC1ULL},
    {"bzip2", 7, 0x556CF24684F1694DULL, 0xAD2EA0E3A2B628A5ULL},
    {"cactusADM", 7, 0x8694E1CCD749BAD4ULL, 0xA74E4CA20BF69419ULL},
    {"calculix", 7, 0xB5DA36B19E61630AULL, 0xF887768339F6BF8AULL},
    {"dealII", 7, 0xDD63B771ACC2831CULL, 0x1770C3D10F01F316ULL},
    {"gamess", 7, 0xF495A6AAD3D46F77ULL, 0xAD342D198EDA1044ULL},
    {"gcc", 7, 0x830B5C69C9210DFBULL, 0xC66F327DA30F30A7ULL},
    {"gemsFDTD", 7, 0x243A8804E1AD7651ULL, 0xBC192F9D513CD567ULL},
    {"gobmk", 7, 0xE93348DB1AB298DCULL, 0x85B1CB6BD8D9F210ULL},
    {"gromacs", 7, 0x841C3323C52DB660ULL, 0x1E4758A38FDF9D23ULL},
    {"h264ref", 7, 0x5F4F794E83A48844ULL, 0x90C3365E8B4CBB8FULL},
    {"hmmer", 7, 0xA3A80B41C4998815ULL, 0xE5853015D13403EBULL},
    {"lbm", 7, 0xFA9D9BF5514E93F8ULL, 0x5B24E5301EB5F577ULL},
    {"leslie3d", 7, 0xBEF5D8513BC76583ULL, 0xC908F5EC3F749EB1ULL},
    {"libquantum", 7, 0x5030EE01D8D72BC7ULL, 0x0687C031A13C06F4ULL},
    {"mcf", 7, 0x5D8B9D869BF18F18ULL, 0x2A0370F0982FE194ULL},
    {"milc", 7, 0x70447631826709A4ULL, 0x819BA9930B8A7FF4ULL},
    {"namd", 7, 0xD65022E1CCA67E0EULL, 0xD86D1CAD724E4767ULL},
    {"omnetpp", 7, 0x4F245A22DC909B38ULL, 0x95DC6B1BCDAFA091ULL},
    {"perlbench", 7, 0xBD5E1BF581F28C38ULL, 0x28887B64AB949796ULL},
    {"povray", 7, 0x7570744DF3AD1DDAULL, 0x0F99EC30637F3781ULL},
    {"sjeng", 7, 0xE872D577241479EEULL, 0x7EB882A366128562ULL},
    {"soplex", 7, 0xD180B36B122F021FULL, 0xB7DBB152E40D5AC8ULL},
    {"sphinx", 7, 0x301D8FFB9C9E3486ULL, 0xC800ACB83EC1177EULL},
    {"tonto", 7, 0x5A7EF71D6E9FF7A6ULL, 0x0A317307595FADC5ULL},
    {"wrf", 7, 0xA26402B46726853EULL, 0xBA6577D21C06C512ULL},
    {"xalancbmk", 7, 0x17E293D37A3FA87CULL, 0x2B6F339C084B3BC8ULL},
    {"zeusmp", 7, 0x2C99EA1E24DF8736ULL, 0xFDC3EE2738424F75ULL},
    {"amg2013", 7, 0x1088CB0089D5EED8ULL, 0xD5489D1C9FD3FB8BULL},
    {"comd", 7, 0xBFFC05E24FA4A724ULL, 0xCA8C1641FC2679CDULL},
    {"lulesh", 7, 0x00E237747AF5D87BULL, 0x96219F1B98F031EBULL},
    {"nekbone", 7, 0xBEA34D74B86DC3A2ULL, 0x659CBAB5477B9CCFULL},
    {"xsbench", 7, 0xCB5D3B97DE4EC935ULL, 0xA341CFF61B33AD26ULL},
}};

TEST(GeneratorStream, PinnedDigests) {
  std::size_t checked = 0;
  for (const StreamPin& pin : kStreamPins) {
    const BenchmarkProfile& p = profile_by_name(pin.profile);
    EXPECT_EQ(next_digest(p, pin.seed), pin.next) << p.name << " seed " << pin.seed;
    EXPECT_EQ(skip_digest(p, pin.seed), pin.skip) << p.name << " seed " << pin.seed;
    ++checked;
  }
  EXPECT_EQ(checked, 2 * all_profiles().size());
}

// TemporalReuse windows from 1 line up to ones needing many more halvings
// than the profiles' 96-entry ring: the recency lookahead must resolve every
// coin flip a window allows, never a truncated prefix of them.
TEST(GeneratorStream, RecencyWindowsPinned) {
  constexpr std::array<std::pair<std::uint32_t, std::uint64_t>, 8> kPins{{
      {1u, 0xB3E6372D15D34D20ULL},
      {2u, 0xD49D449AB613B7A3ULL},
      {3u, 0x4ABA982E61A118EEULL},
      {8u, 0x79AE4E9625A8576DULL},
      {96u, 0x77BD564E6C6875A0ULL},
      {129u, 0x2B650ADD6CDBFE26ULL},
      {1000u, 0x2AB9D66B195F5B73ULL},
      {70000u, 0x7AEB0FACD37B9700ULL},
  }};
  for (const auto& [window, digest] : kPins) {
    TemporalReusePattern p(std::make_unique<StreamingPattern>(0, 1'000'000), 0.9, window,
                           window * 31 + 5);
    std::uint64_t h = kFnv1aBasis;
    for (int i = 0; i < 200'000; ++i) h = fnv_fold(h, p.next_block(), 8);
    EXPECT_EQ(h, digest) << "window " << window;
  }
}

TEST(Workloads, Table1Lists) {
  const auto singles = single_core_workloads();
  const auto duals = dual_core_workloads();
  EXPECT_EQ(singles.size(), 34u);
  EXPECT_EQ(duals.size(), 17u);

  // Every dual-core pair uses valid benchmarks, and each of the 34
  // benchmarks appears exactly once across the pairs (Table 1).
  std::unordered_set<std::string> used;
  for (const auto& w : duals) {
    ASSERT_EQ(w.benchmarks.size(), 2u) << w.name;
    for (const auto& b : w.benchmarks) {
      EXPECT_NO_THROW(profile_by_name(b));
      EXPECT_TRUE(used.insert(b).second) << b << " reused";
    }
  }
  EXPECT_EQ(used.size(), 34u);
}

TEST(Workloads, PairNamesMatchPaper) {
  const auto duals = dual_core_workloads();
  EXPECT_EQ(duals.front().name, "GmDl");
  EXPECT_EQ(duals.back().name, "CoAm");
  bool has_gkne = false;
  for (const auto& w : duals) has_gkne |= (w.name == "GkNe");
  EXPECT_TRUE(has_gkne);
}

}  // namespace
}  // namespace esteem::trace
