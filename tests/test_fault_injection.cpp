// Tests for the retention-fault injection subsystem: deterministic weak-cell
// map (its lazily sampled columns checked against the eager reference
// sampler), its process-wide interning, per-epoch line classification
// (checked against a reference full scan), graceful slot retirement, and the
// end-to-end guarantees (bit-identical baseline at nominal refresh, seeded
// reproducibility of corrections under ECC-extended refresh).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <latch>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "cpu/memory_system.hpp"
#include "edram/fault_injection.hpp"
#include "sim/experiment.hpp"
#include "sim/run_cache.hpp"

namespace esteem {
namespace {

using cache::SetAssocCache;
using edram::CellRetentionModel;
using edram::FaultCounters;
using edram::FaultInjector;
using edram::WeakCellMap;

/// Model so weak that at extension 16 nearly every cell decays: Phi(ln 16 -
/// ln 2) ~ 0.98. Lets the classification tests exercise every path with a
/// handful of lines.
FaultConfig aggressive() {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.median_multiple = 2.0;
  cfg.sigma = 1.0;
  return cfg;
}

CellRetentionModel model_of(const FaultConfig& cfg) {
  return CellRetentionModel{cfg.median_multiple, cfg.sigma};
}

TEST(FaultInjector, NominalExtensionHasNoWeakCells) {
  // Default model: the weak tail at extension 1 sits ~10 sigma below the
  // median, so the sampled map must be empty. This is what makes an enabled
  // injector metric-identical to a disabled one at nominal refresh.
  const FaultConfig cfg;
  const FaultInjector inj(cfg, 64, 8, 512, model_of(cfg));
  EXPECT_EQ(inj.total_weak_cells(1), 0u);
}

TEST(FaultInjector, MapIsSeedDeterministic) {
  const FaultConfig cfg = aggressive();
  const FaultInjector a(cfg, 16, 4, 512, model_of(cfg));
  const FaultInjector b(cfg, 16, 4, 512, model_of(cfg));
  for (std::uint32_t set = 0; set < 16; ++set) {
    for (std::uint32_t way = 0; way < 4; ++way) {
      for (std::uint32_t ext = 1; ext <= a.max_tracked_extension(); ++ext) {
        ASSERT_EQ(a.failed_bits(set, way, ext), b.failed_bits(set, way, ext));
      }
    }
  }
  EXPECT_GT(a.total_weak_cells(1), 0u);  // p(1) ~ 0.24: map is populated

  FaultConfig other = cfg;
  other.seed = cfg.seed + 1;
  const FaultInjector c(other, 16, 4, 512, model_of(other));
  bool differs = false;
  for (std::uint32_t set = 0; set < 16 && !differs; ++set) {
    for (std::uint32_t way = 0; way < 4 && !differs; ++way) {
      differs = c.failed_bits(set, way, 16) != a.failed_bits(set, way, 16);
    }
  }
  EXPECT_TRUE(differs);
}

TEST(FaultInjector, FailedBitsMonotoneInExtension) {
  const FaultConfig cfg = aggressive();
  const FaultInjector inj(cfg, 16, 4, 512, model_of(cfg));
  for (std::uint32_t set = 0; set < 16; ++set) {
    for (std::uint32_t way = 0; way < 4; ++way) {
      for (std::uint32_t ext = 2; ext <= inj.max_tracked_extension(); ++ext) {
        ASSERT_GE(inj.failed_bits(set, way, ext), inj.failed_bits(set, way, ext - 1));
      }
      // Beyond the tracked range the count clamps instead of growing.
      EXPECT_EQ(inj.failed_bits(set, way, 100),
                inj.failed_bits(set, way, inj.max_tracked_extension()));
    }
  }
}

TEST(FaultInjector, CorrectedLinesPayPenaltyUntilRefill) {
  const FaultConfig cfg = aggressive();
  SetAssocCache l2({4, 2}, "l2");
  FaultInjector inj(cfg, 4, 2, 512, model_of(cfg));

  const auto out = l2.access(/*blk=*/0, /*is_store=*/false, /*now=*/0);
  ASSERT_FALSE(out.hit);
  ASSERT_NE(out.way, cache::kNoWay);
  const std::uint32_t set = l2.set_index_of(0);

  // With ~502 of 512 cells weak at extension 16, correctable = 512 turns
  // every failure into a correction: nothing is invalidated.
  inj.on_refresh_epoch(l2, /*extension=*/16, /*correctable=*/512, 1, nullptr);
  EXPECT_EQ(inj.counters().scans, 1u);
  EXPECT_EQ(inj.counters().corrected_lines, 1u);
  EXPECT_EQ(inj.counters().uncorrectable(), 0u);
  EXPECT_TRUE(l2.slot_valid(set, out.way));

  // Every hit on the corrected line pays the decode penalty...
  EXPECT_TRUE(inj.corrected_hit(set, out.way));
  EXPECT_TRUE(inj.corrected_hit(set, out.way));
  EXPECT_EQ(inj.counters().corrected_reads, 2u);
  // ...until fresh data is filled, which restores full charge.
  inj.on_fill_slot(set, out.way);
  EXPECT_FALSE(inj.corrected_hit(set, out.way));
  EXPECT_EQ(inj.counters().corrected_reads, 2u);
}

TEST(FaultInjector, UncorrectableCleanVsDirtyAndUpperCopies) {
  const FaultConfig cfg = aggressive();
  SetAssocCache l2({4, 2}, "l2");
  FaultInjector inj(cfg, 4, 2, 512, model_of(cfg));

  l2.access(/*blk=*/0, /*is_store=*/false, 0);  // clean line, set 0
  l2.access(/*blk=*/1, /*is_store=*/true, 0);   // dirty line, set 1

  // correctable = 0: every weak line is detected-uncorrectable.
  std::uint64_t drops = 0;
  inj.on_refresh_epoch(l2, 16, 0, 1, [&](block_t, bool) {
    ++drops;
    return false;  // no dirty upper-level copy
  });
  EXPECT_EQ(inj.counters().refetches, 1u);         // clean line re-fetchable
  EXPECT_EQ(inj.counters().data_loss_events, 1u);  // dirty line is lost
  EXPECT_EQ(drops, 2u);                            // inclusion hook ran per drop
  EXPECT_EQ(l2.valid_lines(), 0u);                 // both invalidated

  // A clean L2 line whose upper-level copy is dirty is still data loss.
  l2.access(/*blk=*/0, /*is_store=*/false, 2);
  inj.on_refresh_epoch(l2, 16, 0, 3, [](block_t, bool) { return true; });
  EXPECT_EQ(inj.counters().data_loss_events, 2u);
  EXPECT_EQ(inj.counters().refetches, 1u);
}

TEST(FaultInjector, RepeatOffendersAreDisabled) {
  FaultConfig cfg = aggressive();
  cfg.disable_threshold = 3;
  SetAssocCache l2({4, 2}, "l2");
  FaultInjector inj(cfg, 4, 2, 512, model_of(cfg));

  // The slot fails each epoch it holds data; after `disable_threshold`
  // consecutive uncorrectable epochs it is retired.
  for (std::uint32_t epoch = 1; epoch <= cfg.disable_threshold; ++epoch) {
    const auto out = l2.access(/*blk=*/0, false, epoch);
    ASSERT_NE(out.way, cache::kNoWay);
    inj.on_refresh_epoch(l2, 16, 0, epoch, nullptr);
  }
  EXPECT_EQ(inj.counters().disabled_lines, 1u);
  EXPECT_EQ(l2.disabled_slots(), 1u);
  EXPECT_TRUE(l2.slot_disabled(l2.set_index_of(0), 0));

  // Disabled slots are skipped by allocation: the block lands elsewhere.
  const auto refill = l2.access(/*blk=*/0, false, 100);
  EXPECT_FALSE(refill.hit);
  EXPECT_NE(refill.way, 0u);
}

TEST(FaultInjector, DisabledSetDegradesToBypass) {
  FaultConfig cfg = aggressive();
  cfg.disable_threshold = 1;
  SetAssocCache l2({4, 2}, "l2");
  FaultInjector inj(cfg, 4, 2, 512, model_of(cfg));

  // Retire both ways of set 0.
  for (int round = 0; round < 2; ++round) {
    l2.access(/*blk=*/0, false, round);
    inj.on_refresh_epoch(l2, 16, 0, round, nullptr);
  }
  EXPECT_EQ(l2.disabled_slots(), 2u);

  // With every way retired, accesses to the set miss without allocating
  // instead of crashing or evicting a disabled slot.
  const auto out = l2.access(/*blk=*/0, false, 10);
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.way, cache::kNoWay);
  EXPECT_EQ(l2.valid_lines(), 0u);
}

// ---------------------------------------------------------------------------
// Interned weak-cell maps.

std::shared_ptr<const WeakCellMap> intern(const FaultConfig& cfg, std::uint32_t sets,
                                          std::uint32_t ways, std::uint32_t bits) {
  return WeakCellMap::interned(cfg, sets, ways, bits, model_of(cfg));
}

TEST(WeakCellMap, EqualKeysShareOneMap) {
  const FaultConfig cfg = aggressive();
  const auto a = intern(cfg, 16, 4, 512);
  const auto b = intern(cfg, 16, 4, 512);
  EXPECT_EQ(a.get(), b.get());

  // Per-run knobs are not part of the sample, so they share the map too.
  FaultConfig run_knobs = cfg;
  run_knobs.disable_threshold = 7;
  run_knobs.correction_latency_cycles = 9;
  EXPECT_EQ(intern(run_knobs, 16, 4, 512).get(), a.get());
}

TEST(WeakCellMap, EveryKeyFieldSeparatesMaps) {
  const FaultConfig cfg = aggressive();
  const auto base = intern(cfg, 16, 4, 512);

  std::vector<std::shared_ptr<const WeakCellMap>> others;
  FaultConfig c = cfg;
  c.seed += 1;
  others.push_back(intern(c, 16, 4, 512));
  c = cfg;
  c.median_multiple = 2.5;
  others.push_back(intern(c, 16, 4, 512));
  c = cfg;
  c.sigma = 1.25;
  others.push_back(intern(c, 16, 4, 512));
  c = cfg;
  c.max_tracked_extension = 8;
  others.push_back(intern(c, 16, 4, 512));
  others.push_back(intern(cfg, 32, 4, 512));  // sets
  others.push_back(intern(cfg, 16, 8, 512));  // ways
  others.push_back(intern(cfg, 16, 4, 256));  // bits per line

  // Doubles are keyed by bit pattern, down to the last ulp.
  c = cfg;
  c.sigma = std::nextafter(cfg.sigma, 2.0);
  others.push_back(intern(c, 16, 4, 512));

  for (std::size_t i = 0; i < others.size(); ++i) {
    EXPECT_NE(others[i].get(), base.get()) << "field " << i;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(others[i].get(), others[j].get()) << i << " vs " << j;
    }
  }
}

TEST(WeakCellMap, KeepsOnlyTheMostRecentIdleMap) {
  FaultConfig a = aggressive();
  a.seed = 0xA11CE;
  FaultConfig b = aggressive();
  b.seed = 0xB0B;
  const std::uint64_t before = WeakCellMap::sampled_count();

  // With no caller holding it, the latest map survives for the next run,
  // with the columns it has sampled...
  const std::weak_ptr<const WeakCellMap> first = intern(a, 16, 4, 512);
  EXPECT_FALSE(first.expired());
  (void)first.lock()->column(16);
  EXPECT_EQ(intern(a, 16, 4, 512).get(), first.lock().get());
  (void)intern(a, 16, 4, 512)->column(16);
  EXPECT_EQ(WeakCellMap::sampled_count() - before, 1u);

  // ...until another key is interned: then nothing keeps it alive.
  const auto other = intern(b, 16, 4, 512);
  EXPECT_TRUE(first.expired());
  (void)other->column(16);
  EXPECT_EQ(WeakCellMap::sampled_count() - before, 2u);
}

TEST(WeakCellMap, InternedMapMatchesFreshSample) {
  const FaultConfig cfg = aggressive();
  const auto shared = intern(cfg, 16, 4, 512);
  const WeakCellMap fresh(cfg, 16, 4, 512, model_of(cfg));
  ASSERT_NE(shared.get(), &fresh);
  for (std::size_t slot = 0; slot < 16 * 4; ++slot) {
    for (std::uint32_t ext = 0; ext <= cfg.max_tracked_extension + 1; ++ext) {
      ASSERT_EQ(shared->failed_bits(slot, ext), fresh.failed_bits(slot, ext));
    }
  }
}

TEST(WeakCellMap, ConcurrentFirstUseSamplesOnce) {
  FaultConfig cfg = aggressive();
  cfg.seed = 0x5EED'0F'7E57ULL;  // a key no other test interns
  constexpr int kThreads = 8;
  const std::uint64_t before = WeakCellMap::sampled_count();
  std::latch start(kThreads);
  // Every thread interns the key and reads one of two columns at once, as
  // `--jobs N` runs of a nominal-interval and an ECC-extended technique do.
  struct Use {
    std::shared_ptr<const WeakCellMap> map;
    const std::uint16_t* column;
  };
  const auto extension_of = [](int t) { return t % 2 == 0 ? 16u : 4u; };
  std::vector<std::future<Use>> got;
  for (int t = 0; t < kThreads; ++t) {
    got.push_back(std::async(std::launch::async, [&, t] {
      start.arrive_and_wait();
      auto map = intern(cfg, 64, 8, 512);
      const std::uint16_t* column = map->column(extension_of(t));
      return Use{std::move(map), column};
    }));
  }
  std::vector<Use> uses;
  for (auto& f : got) uses.push_back(f.get());
  // One map, and one sampling pass per column.
  EXPECT_EQ(WeakCellMap::sampled_count() - before, 2u);
  const WeakCellMap fresh(cfg, 64, 8, 512, model_of(cfg));
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(uses[t].map.get(), uses[0].map.get());
    EXPECT_EQ(uses[t].column, uses[t % 2].column);
    for (std::size_t slot = 0; slot < 64 * 8; ++slot) {
      ASSERT_EQ(uses[t].column[slot], fresh.failed_bits(slot, extension_of(t)));
    }
  }
}

/// The eager sampler the per-extension columns replaced, kept as the
/// reference: one pass fills every extension's cumulative count,
/// fail_at[slot * max_ext + (k - 1)], walking each weak cell up to the first
/// extension at which it fails.
std::vector<std::uint16_t> eager_fail_at(const FaultConfig& cfg, std::uint32_t sets,
                                         std::uint32_t ways, std::uint32_t bits_per_line,
                                         const CellRetentionModel& model) {
  const std::uint32_t max_ext = cfg.max_tracked_extension;
  const std::size_t slots = static_cast<std::size_t>(sets) * ways;
  std::vector<std::uint16_t> fail_at(slots * max_ext, 0);
  std::vector<double> p_k(max_ext);
  for (std::uint32_t k = 1; k <= max_ext; ++k) {
    p_k[k - 1] = edram::cell_failure_probability(static_cast<double>(k), model);
  }
  const double p_cap = p_k[max_ext - 1];
  if (p_cap <= 0.0) return fail_at;
  const double log1mp = std::log1p(-std::min(p_cap, 1.0 - 1e-15));
  for (std::size_t s = 0; s < slots; ++s) {
    std::uint64_t seed_state = cfg.seed + 0x9E3779B97F4A7C15ULL * (s + 1);
    Rng rng(splitmix64(seed_state));
    double pos = -1.0;
    for (;;) {
      const double u = rng.uniform();
      pos += 1.0 + std::floor(std::log1p(-u) / log1mp);
      if (pos >= static_cast<double>(bits_per_line)) break;
      const double u2 = p_cap * rng.uniform();
      std::uint32_t fail_from = 1;
      while (fail_from <= max_ext && p_k[fail_from - 1] <= u2) ++fail_from;
      for (std::uint32_t k = fail_from; k <= max_ext; ++k) {
        std::uint16_t& c = fail_at[s * max_ext + (k - 1)];
        if (c < 0xFFFF) ++c;
      }
    }
  }
  return fail_at;
}

TEST(WeakCellMap, ColumnsMatchEagerReference) {
  struct Geometry {
    std::uint32_t sets, ways, bits, max_ext;
  };
  const Geometry geometries[] = {
      {16, 4, 512, 16}, {64, 8, 64, kMaxTrackedExtension}, {8, 2, 4096, 5}};
  std::uint64_t cells = 0;
  std::uint64_t partial = 0;  // slot-columns strictly between 0 and the top count
  for (const Geometry& g : geometries) {
    for (const double sigma : {0.35, 1.0}) {
      for (const std::uint64_t seed : {0xEDACULL, 0x5EED'0002ULL}) {
        SCOPED_TRACE(testing::Message() << g.sets << "x" << g.ways << "x" << g.bits
                                        << " ext " << g.max_ext << " sigma " << sigma
                                        << " seed " << seed);
        FaultConfig cfg;
        cfg.seed = seed;
        cfg.sigma = sigma;
        cfg.max_tracked_extension = g.max_ext;
        const std::vector<std::uint16_t> want =
            eager_fail_at(cfg, g.sets, g.ways, g.bits, model_of(cfg));
        const WeakCellMap map(cfg, g.sets, g.ways, g.bits, model_of(cfg));
        const std::size_t slots = static_cast<std::size_t>(g.sets) * g.ways;
        for (std::uint32_t k = 1; k <= g.max_ext; ++k) {
          const std::uint16_t* column = map.column(k);
          for (std::size_t s = 0; s < slots; ++s) {
            const std::uint16_t top = want[s * g.max_ext + (g.max_ext - 1)];
            ASSERT_EQ(column[s], want[s * g.max_ext + (k - 1)]) << "k " << k << " slot " << s;
            partial += column[s] > 0 && column[s] < top;
          }
        }
        for (std::size_t s = 0; s < slots; ++s) {
          ASSERT_EQ(map.failed_bits(s, 0), 0u);
          ASSERT_EQ(map.failed_bits(s, g.max_ext + 7), want[s * g.max_ext + g.max_ext - 1]);
          cells += want[s * g.max_ext + g.max_ext - 1];
        }
      }
    }
  }
  // Guards against a vacuous comparison: many weak cells, and counts that
  // grow across extensions rather than jumping from 0 to the top.
  EXPECT_GT(cells, 10'000u);
  EXPECT_GT(partial, 100u);
}

// ---------------------------------------------------------------------------
// Epoch scans against a reference full scan.

/// The classification every epoch would perform if it visited every slot:
/// the specification the listed (skipping) scan must reproduce exactly.
class ReferenceInjector {
 public:
  ReferenceInjector(const FaultConfig& cfg, std::shared_ptr<const WeakCellMap> map)
      : map_(std::move(map)),
        threshold_(cfg.disable_threshold),
        streak_(map_->sets() * map_->ways(), 0),
        corrected_(map_->sets() * map_->ways(), 0) {}

  void on_refresh_epoch(SetAssocCache& l2, std::uint32_t extension,
                        std::uint32_t correctable, cycle_t now) {
    ++counters_.scans;
    for (std::uint32_t set = 0; set < map_->sets(); ++set) {
      for (std::uint32_t way = 0; way < map_->ways(); ++way) {
        const std::size_t i = slot(set, way);
        if (l2.slot_disabled(set, way) || !l2.slot_valid(set, way)) {
          corrected_[i] = 0;
          continue;
        }
        const std::uint32_t failed = map_->failed_bits(i, extension);
        if (failed == 0) {
          corrected_[i] = 0;
          streak_[i] = 0;
          continue;
        }
        if (failed <= correctable) {
          ++counters_.corrected_lines;
          corrected_[i] = 1;
          streak_[i] = 0;
          continue;
        }
        const bool dirty = l2.slot_dirty(set, way);
        l2.invalidate_slot(set, way, now);
        corrected_[i] = 0;
        ++(dirty ? counters_.data_loss_events : counters_.refetches);
        if (streak_[i] < 0xFF) ++streak_[i];
        if (streak_[i] >= threshold_ && l2.disable_slot(set, way, now)) {
          ++counters_.disabled_lines;
        }
      }
    }
  }

  bool corrected_hit(std::uint32_t set, std::uint32_t way) {
    if (corrected_[slot(set, way)] == 0) return false;
    ++counters_.corrected_reads;
    return true;
  }
  void on_fill_slot(std::uint32_t set, std::uint32_t way) {
    corrected_[slot(set, way)] = 0;
  }

  std::uint32_t streak(std::uint32_t set, std::uint32_t way) const {
    return streak_[slot(set, way)];
  }
  bool corrected(std::uint32_t set, std::uint32_t way) const {
    return corrected_[slot(set, way)] != 0;
  }
  const FaultCounters& counters() const { return counters_; }

 private:
  std::size_t slot(std::uint32_t set, std::uint32_t way) const {
    return static_cast<std::size_t>(set) * map_->ways() + way;
  }

  std::shared_ptr<const WeakCellMap> map_;
  std::uint32_t threshold_;
  std::vector<std::uint8_t> streak_;
  std::vector<std::uint8_t> corrected_;
  FaultCounters counters_;
};

void expect_same_counters(const FaultCounters& a, const FaultCounters& b) {
  EXPECT_EQ(a.scans, b.scans);
  EXPECT_EQ(a.corrected_lines, b.corrected_lines);
  EXPECT_EQ(a.corrected_reads, b.corrected_reads);
  EXPECT_EQ(a.refetches, b.refetches);
  EXPECT_EQ(a.data_loss_events, b.data_loss_events);
  EXPECT_EQ(a.disabled_lines, b.disabled_lines);
}

/// Two (cache, injector) pairs driven by one script: `A` is the injector
/// under test, `B` the one it must match.
template <typename A, typename B>
struct Twin {
  SetAssocCache l2a;
  SetAssocCache l2b;
  A a;
  B b;

  /// One demand access on both sides; hits probe the corrected flag, fills
  /// clear it, as MemorySystem does.
  void access(block_t blk, bool store, cycle_t now) {
    const auto oa = l2a.access(blk, store, now);
    const auto ob = l2b.access(blk, store, now);
    ASSERT_EQ(oa.hit, ob.hit);
    ASSERT_EQ(oa.way, ob.way);
    const std::uint32_t set = l2a.set_index_of(blk);
    if (oa.hit) {
      ASSERT_EQ(a.corrected_hit(set, oa.way), b.corrected_hit(set, ob.way));
    } else if (oa.way != cache::kNoWay) {
      a.on_fill_slot(set, oa.way);
      b.on_fill_slot(set, ob.way);
    }
  }

  void expect_same_state() {
    expect_same_counters(a.counters(), b.counters());
    ASSERT_EQ(l2a.valid_lines(), l2b.valid_lines());
    ASSERT_EQ(l2a.disabled_slots(), l2b.disabled_slots());
    for (std::uint32_t set = 0; set < l2a.sets(); ++set) {
      for (std::uint32_t way = 0; way < l2a.ways(); ++way) {
        ASSERT_EQ(l2a.slot_valid(set, way), l2b.slot_valid(set, way));
        ASSERT_EQ(l2a.slot_disabled(set, way), l2b.slot_disabled(set, way));
        if (l2a.slot_valid(set, way)) {
          ASSERT_EQ(l2a.slot_block(set, way), l2b.slot_block(set, way));
          ASSERT_EQ(l2a.slot_dirty(set, way), l2b.slot_dirty(set, way));
        }
        ASSERT_EQ(a.streak(set, way), b.streak(set, way)) << set << "/" << way;
        ASSERT_EQ(a.corrected(set, way), b.corrected(set, way)) << set << "/" << way;
      }
    }
  }
};

/// Weak enough that, at extension 16 over 64-bit lines, some slots fail by
/// one or two cells and most by none; at extension 1 none fails.
FaultConfig mixed() {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.median_multiple = 60.0;
  cfg.sigma = 0.5;
  cfg.disable_threshold = 2;
  return cfg;
}

constexpr std::uint32_t kSets = 64;
constexpr std::uint32_t kWays = 4;
constexpr std::uint32_t kBits = 64;

/// Random fills, hits, stray invalidations (as decay and reconfiguration
/// do) and epochs; extension and ECC strength per epoch from the choosers.
template <typename Twin, typename ExtFn, typename EccFn>
void drive(Twin& t, std::uint64_t seed, int epochs, ExtFn ext_of, EccFn ecc_of) {
  Rng rng(seed);
  cycle_t now = 0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const int ops = 20 + static_cast<int>(rng() % 200);
    for (int op = 0; op < ops; ++op) {
      ++now;
      if (rng() % 16 == 0) {
        const auto set = static_cast<std::uint32_t>(rng() % kSets);
        const auto way = static_cast<std::uint32_t>(rng() % kWays);
        t.l2a.invalidate_slot(set, way, now);
        t.l2b.invalidate_slot(set, way, now);
        continue;
      }
      const block_t blk = rng() % (3 * kSets * kWays);
      t.access(blk, rng() % 4 == 0, now);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ++now;
    const std::uint32_t ext = ext_of(epoch, rng);
    const std::uint32_t ecc = ecc_of(epoch, rng);
    t.a.on_refresh_epoch(t.l2a, ext, ecc, now, nullptr);
    t.b.on_refresh_epoch(t.l2b, ext, ecc, now);
    t.expect_same_state();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

using OracleTwin = Twin<FaultInjector, ReferenceInjector>;

OracleTwin oracle_twin(const FaultConfig& cfg) {
  auto map = std::make_shared<const WeakCellMap>(cfg, kSets, kWays, kBits, model_of(cfg));
  return OracleTwin{SetAssocCache({kSets, kWays}, "a"), SetAssocCache({kSets, kWays}, "b"),
                    FaultInjector(cfg, map), ReferenceInjector(cfg, map)};
}

TEST(FaultEpochScan, MixedMapHasLiveAndDeadSlots) {
  // Guards the oracle tests below against a vacuous map.
  const FaultConfig cfg = mixed();
  const WeakCellMap map(cfg, kSets, kWays, kBits, model_of(cfg));
  std::uint32_t weak = 0;
  std::uint32_t multi = 0;
  for (std::size_t s = 0; s < kSets * kWays; ++s) {
    EXPECT_EQ(map.failed_bits(s, 1), 0u);
    weak += map.failed_bits(s, 16) > 0;
    multi += map.failed_bits(s, 16) > 1;
  }
  EXPECT_GT(weak, kSets * kWays / 10);
  EXPECT_LT(weak, kSets * kWays / 2);
  EXPECT_GT(multi, 0u);
}

TEST(FaultEpochScan, FixedExtensionMatchesFullScan) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    OracleTwin t = oracle_twin(mixed());
    drive(t, seed, 60, [](int, Rng&) { return 16u; },
          [](int, Rng& r) { return static_cast<std::uint32_t>(r() % 3); });
    if (HasFatalFailure()) return;
    // Every path fired: corrections, drops and retirements.
    EXPECT_GT(t.a.counters().corrected_lines, 0u);
    EXPECT_GT(t.a.counters().uncorrectable(), 0u);
    EXPECT_GT(t.a.counters().disabled_lines, 0u);
  }
}

TEST(FaultEpochScan, AlternatingExtensionsMatchFullScan) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    OracleTwin t = oracle_twin(mixed());
    // Runs of each extension, so both the listed and the full scans repeat.
    drive(t, seed, 80, [](int, Rng& r) { return r() % 3 == 0 ? 1u : 16u; },
          [](int, Rng& r) { return static_cast<std::uint32_t>(r() % 2); });
    if (HasFatalFailure()) return;
  }
}

TEST(FaultEpochScan, CorrectedFlagClearsWhenExtensionDrops) {
  const FaultConfig cfg = mixed();
  OracleTwin t = oracle_twin(cfg);
  // Fill every slot, then correct all weak lines at extension 16.
  for (block_t blk = 0; blk < kSets * kWays; ++blk) t.access(blk, false, 1);
  t.a.on_refresh_epoch(t.l2a, 16, 64, 2, nullptr);
  t.b.on_refresh_epoch(t.l2b, 16, 64, 2);
  t.expect_same_state();
  std::uint32_t corrected = 0;
  for (std::uint32_t set = 0; set < kSets; ++set) {
    for (std::uint32_t way = 0; way < kWays; ++way) corrected += t.a.corrected(set, way);
  }
  ASSERT_GT(corrected, 0u);

  // At extension 1 nothing fails: the first such epoch clears every flag,
  // and later ones (the listed scan) keep them clear.
  for (cycle_t now = 3; now < 6; ++now) {
    t.a.on_refresh_epoch(t.l2a, 1, 64, now, nullptr);
    t.b.on_refresh_epoch(t.l2b, 1, 64, now);
    t.expect_same_state();
    for (std::uint32_t set = 0; set < kSets; ++set) {
      for (std::uint32_t way = 0; way < kWays; ++way) {
        ASSERT_FALSE(t.a.corrected(set, way));
        ASSERT_FALSE(t.a.corrected_hit(set, way));
      }
    }
  }
  // Back at 16 the weak lines are corrected again.
  t.a.on_refresh_epoch(t.l2a, 16, 64, 7, nullptr);
  t.b.on_refresh_epoch(t.l2b, 16, 64, 7);
  t.expect_same_state();
  EXPECT_EQ(t.a.counters().corrected_lines, 2 * static_cast<std::uint64_t>(corrected));
}

TEST(FaultEpochScan, NominalEpochsStillCountScans) {
  // At extension 1 under the default model no slot can fail: after the
  // first full scan every epoch is O(1) but still counts as a scan.
  const FaultConfig cfg;
  SetAssocCache l2({64, 8}, "l2");
  FaultInjector inj(cfg, 64, 8, 512, model_of(cfg));
  for (block_t blk = 0; blk < 64 * 8; ++blk) l2.access(blk, true, 0);
  for (cycle_t now = 1; now <= 4; ++now) inj.on_refresh_epoch(l2, 1, 0, now, nullptr);
  EXPECT_EQ(inj.counters().scans, 4u);
  EXPECT_EQ(inj.counters().uncorrectable() + inj.counters().corrected_lines, 0u);
  EXPECT_EQ(l2.valid_lines(), 64u * 8u);
}

TEST(WeakCellMap, InjectorOnInternedMapMatchesFreshInjector) {
  FaultConfig cfg = mixed();
  cfg.disable_threshold = 3;
  using PairTwin = Twin<FaultInjector, FaultInjector>;
  PairTwin t{SetAssocCache({kSets, kWays}, "a"), SetAssocCache({kSets, kWays}, "b"),
             FaultInjector(cfg, intern(cfg, kSets, kWays, kBits)),
             FaultInjector(cfg, kSets, kWays, kBits, model_of(cfg))};
  ASSERT_NE(t.a.map().get(), t.b.map().get());
  Rng rng(99);
  cycle_t now = 0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    for (int op = 0; op < 150; ++op) {
      t.access(rng() % (3 * kSets * kWays), rng() % 4 == 0, ++now);
      ASSERT_FALSE(HasFatalFailure());
    }
    const auto ecc = static_cast<std::uint32_t>(rng() % 3);
    t.a.on_refresh_epoch(t.l2a, 16, ecc, ++now, nullptr);
    t.b.on_refresh_epoch(t.l2b, 16, ecc, now, nullptr);
    t.expect_same_state();
    ASSERT_FALSE(HasFatalFailure());
  }
  for (std::uint32_t set = 0; set < kSets; ++set) {
    for (std::uint32_t way = 0; way < kWays; ++way) {
      for (std::uint32_t ext = 1; ext <= 16; ++ext) {
        ASSERT_EQ(t.a.failed_bits(set, way, ext), t.b.failed_bits(set, way, ext));
      }
    }
  }
  EXPECT_GT(t.a.counters().corrected_reads, 0u);
  EXPECT_GT(t.a.counters().disabled_lines, 0u);
}

// ---------------------------------------------------------------------------
// End-to-end guarantees through System/run_experiment.

SystemConfig tiny() {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l1.geom = CacheGeometry{8ULL * 1024, 4, 64};
  cfg.l2.geom = CacheGeometry{512ULL * 1024, 8, 64};
  cfg.edram.retention_us = 5.0;
  cfg.esteem.interval_cycles = 100'000;
  return cfg;
}

sim::RunOutcome run(const SystemConfig& cfg, cpu::Technique t, instr_t instr) {
  sim::RunSpec spec;
  spec.config = cfg;
  spec.technique = t;
  spec.workload = {"gamess", {"gamess"}};
  spec.instr_per_core = instr;
  return sim::run_experiment(spec);
}

TEST(FaultIntegration, NominalBaselineBitIdentical) {
  SystemConfig off = tiny();
  SystemConfig on = tiny();
  on.faults.enabled = true;

  const sim::RunOutcome a = run(off, cpu::Technique::BaselinePeriodicAll, 120'000);
  const sim::RunOutcome b = run(on, cpu::Technique::BaselinePeriodicAll, 120'000);

  // At nominal refresh the weak-cell map is empty: the injector must be
  // metrically invisible, down to the last bit.
  EXPECT_EQ(b.raw.faults.uncorrectable(), 0u);
  EXPECT_EQ(b.raw.faults.corrected_lines, 0u);
  EXPECT_GT(b.raw.faults.scans, 0u);  // ...but it did scan
  EXPECT_EQ(a.raw.wall_cycles, b.raw.wall_cycles);
  ASSERT_EQ(a.raw.ipc.size(), b.raw.ipc.size());
  for (std::size_t i = 0; i < a.raw.ipc.size(); ++i) {
    EXPECT_EQ(a.raw.ipc[i], b.raw.ipc[i]);
  }
  EXPECT_EQ(a.raw.refreshes, b.raw.refreshes);
  EXPECT_EQ(a.raw.demand_misses, b.raw.demand_misses);
  EXPECT_EQ(a.energy.total_j(), b.energy.total_j());
  EXPECT_EQ(b.raw.disabled_slots, 0u);
}

TEST(FaultIntegration, EccExtendedCorrectionsAreSeededAndReproducible) {
  SystemConfig cfg = tiny();
  cfg.faults.enabled = true;
  cfg.faults.sigma = 0.5;  // max_safe_extension picks 4 -> weak tail is live

  const sim::RunOutcome a = run(cfg, cpu::Technique::EccExtended, 300'000);
  const sim::RunOutcome b = run(cfg, cpu::Technique::EccExtended, 300'000);

  // Seeded run reproducibly observes corrections, and the ECC strength was
  // provisioned so they stay correctable: no data loss at the chosen
  // extension.
  EXPECT_GT(a.raw.faults.corrected_lines, 0u);
  EXPECT_GT(a.raw.faults.corrected_reads, 0u);
  EXPECT_EQ(a.raw.faults.data_loss_events, 0u);
  EXPECT_EQ(a.raw.faults.corrected_lines, b.raw.faults.corrected_lines);
  EXPECT_EQ(a.raw.faults.corrected_reads, b.raw.faults.corrected_reads);
  EXPECT_EQ(a.raw.wall_cycles, b.raw.wall_cycles);

  // Corrections are visible in time and energy: corrected reads stall the
  // core (compare against a zero-latency decode with the same weak-cell map)
  // and charge an extra decode access each.
  SystemConfig free_decode = cfg;
  free_decode.faults.correction_latency_cycles = 0;
  const sim::RunOutcome c = run(free_decode, cpu::Technique::EccExtended, 300'000);
  EXPECT_GT(c.raw.faults.corrected_reads, 0u);
  EXPECT_GT(a.raw.wall_cycles, c.raw.wall_cycles);
  EXPECT_GT(a.energy.ecc_l2_j, 0.0);
}

TEST(FaultIntegration, EccExtensionBeyondTrackedRangeIsRefused) {
  SystemConfig cfg = tiny();
  cfg.faults.enabled = true;
  cfg.faults.sigma = 0.5;  // max_safe_extension picks 4
  cfg.faults.max_tracked_extension = 3;
  EXPECT_THROW(cpu::MemorySystem(cfg, cpu::Technique::EccExtended), std::invalid_argument);
  // Techniques at the nominal interval read extension 1 only.
  EXPECT_NO_THROW(cpu::MemorySystem(cfg, cpu::Technique::BaselinePeriodicAll));
  cfg.faults.max_tracked_extension = 4;
  EXPECT_NO_THROW(cpu::MemorySystem(cfg, cpu::Technique::EccExtended));
  // Without fault injection there is no map to outrun.
  cfg.faults.enabled = false;
  cfg.faults.max_tracked_extension = 1;
  EXPECT_NO_THROW(cpu::MemorySystem(cfg, cpu::Technique::EccExtended));
}

TEST(FaultIntegration, ConcurrentRunsShareOneMapAndMatchSerialRuns) {
  SystemConfig cfg = tiny();
  cfg.faults.enabled = true;
  cfg.faults.sigma = 0.5;
  cfg.faults.seed = 0xC0C0'FA17ULL;  // a key no other test interns
  const std::vector<cpu::Technique> techniques = {
      cpu::Technique::BaselinePeriodicAll, cpu::Technique::EccExtended,
      cpu::Technique::RefrintRPD, cpu::Technique::SmartRefresh,
      cpu::Technique::CacheDecay};

  const std::uint64_t before = edram::WeakCellMap::sampled_count();
  std::vector<std::uint64_t> serial;
  for (const cpu::Technique t : techniques) {
    serial.push_back(sim::outcome_digest(run(cfg, t, 150'000)));
  }
  // Systems built on pool threads, as in `run_sweep --jobs N`.
  std::vector<std::future<std::uint64_t>> pending;
  for (const cpu::Technique t : techniques) {
    pending.push_back(std::async(std::launch::async, [&cfg, t] {
      return sim::outcome_digest(run(cfg, t, 150'000));
    }));
  }
  std::vector<std::uint64_t> threaded;
  for (auto& f : pending) threaded.push_back(f.get());

  EXPECT_EQ(serial, threaded);
  // One fault configuration, one map for the whole process, and one
  // sampling pass for each extension the runs read: 1, and the ECC one.
  EXPECT_EQ(edram::WeakCellMap::sampled_count() - before, 2u);
}

}  // namespace
}  // namespace esteem
