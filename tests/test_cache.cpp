// Unit + property tests for the set-associative cache and module map.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/module_map.hpp"
#include "common/rng.hpp"
#include "cpu/memory_system.hpp"

namespace esteem::cache {
namespace {

// Records every listener callback for verification.
struct RecordingListener final : LineListener {
  struct Event {
    char kind;  // 'F' fill, 'T' touch, 'I' invalidate
    std::uint32_t set;
    std::uint32_t way;
    bool dirty = false;
    cycle_t now = 0;
  };
  std::vector<Event> events;

  void on_fill(std::uint32_t set, std::uint32_t way, block_t, cycle_t now) override {
    events.push_back({'F', set, way, false, now});
  }
  void on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) override {
    events.push_back({'T', set, way, false, now});
  }
  void on_invalidate(std::uint32_t set, std::uint32_t way, bool dirty,
                     cycle_t now) override {
    events.push_back({'I', set, way, dirty, now});
  }
};

/// RecordingListener that opts out of per-touch notification (fast lane).
struct TouchlessListener final : LineListener {
  int fills = 0, touches = 0, invalidates = 0;
  void on_fill(std::uint32_t, std::uint32_t, block_t, cycle_t) override { ++fills; }
  void on_touch(std::uint32_t, std::uint32_t, cycle_t) override { ++touches; }
  void on_invalidate(std::uint32_t, std::uint32_t, bool, cycle_t) override {
    ++invalidates;
  }
  bool wants_touch() const noexcept override { return false; }
};

TEST(Cache, HitAfterFill) {
  SetAssocCache c({4, 2});
  EXPECT_FALSE(c.access(0, false, 0).hit);
  EXPECT_TRUE(c.access(0, false, 1).hit);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().misses, 1u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(4));  // same set, different block
}

TEST(Cache, LruEvictionOrder) {
  SetAssocCache c({1, 2});  // single set, 2 ways
  c.access(0, false, 0);
  c.access(1, false, 1);
  c.access(0, false, 2);  // 0 now MRU, 1 LRU
  const AccessOutcome out = c.access(2, false, 3);
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.victim, 1u);  // LRU block evicted
  EXPECT_TRUE(c.contains(0));
  EXPECT_FALSE(c.contains(1));
}

TEST(Cache, LruPositionSemantics) {
  SetAssocCache c({1, 4});
  for (block_t b = 0; b < 4; ++b) c.access(b, false, b);
  // Recency order (MRU..LRU): 3,2,1,0.
  EXPECT_EQ(c.access(3, false, 10).lru_pos, 0u);  // MRU
  EXPECT_EQ(c.access(0, false, 11).lru_pos, 3u);  // was LRU
  // After touching 0 it is MRU; 3 is now position 1.
  EXPECT_EQ(c.access(3, false, 12).lru_pos, 1u);
}

TEST(Cache, DirtyVictimReported) {
  SetAssocCache c({1, 1});
  c.access(0, true, 0);  // store: dirty
  const AccessOutcome out = c.access(1, false, 1);
  EXPECT_EQ(out.victim, 0u);
  EXPECT_TRUE(out.victim_dirty);
  EXPECT_EQ(c.stats().dirty_evictions, 1u);
}

TEST(Cache, StoreHitMarksDirty) {
  SetAssocCache c({1, 2});
  c.access(0, false, 0);  // clean fill
  c.access(0, true, 1);   // store hit dirties it
  const AccessOutcome out1 = c.access(1, false, 2);
  EXPECT_FALSE(out1.hit);
  const AccessOutcome out2 = c.access(2, false, 3);  // evicts block 0 (LRU)
  EXPECT_EQ(out2.victim, 0u);
  EXPECT_TRUE(out2.victim_dirty);
}

TEST(Cache, ValidLinesTracked) {
  SetAssocCache c({4, 2});
  EXPECT_EQ(c.valid_lines(), 0u);
  for (block_t b = 0; b < 8; ++b) c.access(b, false, b);
  EXPECT_EQ(c.valid_lines(), 8u);
  c.access(8, false, 100);  // evicts one
  EXPECT_EQ(c.valid_lines(), 8u);
  c.invalidate(8, 101);
  EXPECT_EQ(c.valid_lines(), 7u);
}

TEST(Cache, InvalidateReturnsDirtiness) {
  SetAssocCache c({2, 2});
  c.access(0, true, 0);
  c.access(1, false, 1);
  EXPECT_TRUE(c.invalidate(0, 2));
  EXPECT_FALSE(c.invalidate(1, 3));
  EXPECT_FALSE(c.invalidate(1, 4));  // already gone
  EXPECT_FALSE(c.contains(0));
}

TEST(Cache, InvalidateSlot) {
  SetAssocCache c({1, 2});
  c.access(0, true, 0);
  EXPECT_TRUE(c.slot_valid(0, 0));
  EXPECT_TRUE(c.invalidate_slot(0, 0, 1));   // dirty
  EXPECT_FALSE(c.invalidate_slot(0, 0, 2));  // no-op now
  EXPECT_THROW(c.invalidate_slot(5, 0, 0), std::out_of_range);
}

TEST(Cache, ResizeSetFlushesDeactivatedWays) {
  SetAssocCache c({1, 4});
  c.access(0, true, 0);   // dirty
  c.access(1, false, 1);  // clean
  c.access(2, false, 2);
  c.access(3, false, 3);
  std::vector<std::pair<block_t, bool>> evicted;
  c.resize_set(0, 2, 4, [&](block_t b, bool d) { evicted.emplace_back(b, d); });
  EXPECT_EQ(c.active_ways(0), 2u);
  EXPECT_EQ(evicted.size(), 2u);
  EXPECT_EQ(c.valid_lines(), 2u);
  // Lines in ways [0,2) survive: blocks 0 and 1 were filled there.
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_FALSE(c.contains(3));
}

TEST(Cache, ShrunkSetUsesOnlyActiveWays) {
  SetAssocCache c({1, 4});
  c.resize_set(0, 2, 0, nullptr);
  for (block_t b = 0; b < 10; ++b) c.access(b, false, b);
  EXPECT_EQ(c.valid_lines(), 2u);  // only 2 ways available
  // Re-grow: capacity returns.
  c.resize_set(0, 4, 11, nullptr);
  for (block_t b = 0; b < 4; ++b) c.access(100 + b, false, 100 + b);
  EXPECT_EQ(c.valid_lines(), 4u);
}

TEST(Cache, ResizeValidation) {
  SetAssocCache c({2, 2});
  EXPECT_THROW(c.resize_set(0, 0, 0, nullptr), std::invalid_argument);
  EXPECT_THROW(c.resize_set(0, 3, 0, nullptr), std::invalid_argument);
  EXPECT_THROW(c.resize_set(9, 1, 0, nullptr), std::out_of_range);
}

TEST(Cache, ListenerSeesLifecycle) {
  SetAssocCache c({1, 1});
  RecordingListener listener;
  c.set_listener(&listener);
  c.access(0, true, 0);   // fill
  c.access(0, false, 1);  // touch
  c.access(1, false, 2);  // invalidate (dirty victim) + fill
  ASSERT_EQ(listener.events.size(), 4u);
  EXPECT_EQ(listener.events[0].kind, 'F');
  EXPECT_EQ(listener.events[1].kind, 'T');
  EXPECT_EQ(listener.events[2].kind, 'I');
  EXPECT_TRUE(listener.events[2].dirty);
  EXPECT_EQ(listener.events[3].kind, 'F');
}

TEST(Cache, TouchlessListenerSkipsPerHitDispatch) {
  SetAssocCache c({1, 2});
  TouchlessListener listener;
  c.set_listener(&listener);
  c.access(0, false, 0);  // fill
  c.access(0, false, 1);  // hit: on_touch must be skipped
  c.access(0, false, 2);
  c.access(1, false, 3);  // fill
  c.access(2, false, 4);  // evict + fill
  EXPECT_EQ(listener.fills, 3);
  EXPECT_EQ(listener.touches, 0);
  EXPECT_EQ(listener.invalidates, 1);
}

TEST(Cache, LruTrackingToggleAffectsOnlyLruPos) {
  SetAssocCache tracked({1, 4});
  SetAssocCache untracked({1, 4});
  untracked.set_lru_tracking(false);
  EXPECT_TRUE(tracked.lru_tracking());
  EXPECT_FALSE(untracked.lru_tracking());

  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const block_t blk = rng.below(12);
    const AccessOutcome a = tracked.access(blk, false, i);
    const AccessOutcome b = untracked.access(blk, false, i);
    // Identical behaviour in everything but the lru_pos computation.
    ASSERT_EQ(a.hit, b.hit);
    ASSERT_EQ(a.way, b.way);
    ASSERT_EQ(a.victim, b.victim);
    ASSERT_EQ(a.victim_dirty, b.victim_dirty);
  }
  EXPECT_EQ(tracked.stats().hits, untracked.stats().hits);
  EXPECT_EQ(tracked.stats().evictions, untracked.stats().evictions);
}

TEST(Cache, ResizeSetStampsListenerWithActualCycle) {
  SetAssocCache c({1, 4});
  RecordingListener listener;
  c.set_listener(&listener);
  for (block_t b = 0; b < 4; ++b) c.access(b, false, b);
  listener.events.clear();
  c.resize_set(0, 2, 777, nullptr);
  ASSERT_EQ(listener.events.size(), 2u);
  for (const auto& e : listener.events) {
    EXPECT_EQ(e.kind, 'I');
    EXPECT_EQ(e.now, 777u);  // the reconfiguration cycle, not 0
  }
}

TEST(Cache, RejectsBadGeometry) {
  EXPECT_THROW(SetAssocCache({0, 4}), std::invalid_argument);
  EXPECT_THROW(SetAssocCache({4, 0}), std::invalid_argument);
  EXPECT_THROW(SetAssocCache({3, 4}), std::invalid_argument);  // non-pow2 sets
}

// A slot keeps its tag without the set-index bits, split at bit 32 of the
// tag: two blocks of one set whose tags differ only above bit 32 share the
// low word and must still never alias.
TEST(Cache, TagsDifferingOnlyAboveBit32DoNotAlias) {
  SetAssocCache c({4, 2});
  const block_t a = 5;
  const block_t b = a + (block_t{4} << 32);  // tag + 2^32, same set
  const block_t d = a + (block_t{4} << 45);  // tag + 2^45, the top tag bit
  ASSERT_EQ(c.set_index_of(a), c.set_index_of(b));
  ASSERT_EQ(c.set_index_of(a), c.set_index_of(d));
  EXPECT_FALSE(c.access(a, true, 0).hit);
  EXPECT_FALSE(c.contains(b));
  EXPECT_FALSE(c.access(b, false, 1).hit);
  EXPECT_TRUE(c.access(a, false, 2).hit);
  EXPECT_TRUE(c.access(b, false, 3).hit);
  EXPECT_EQ(c.slot_block(1, 0), a);
  EXPECT_EQ(c.slot_block(1, 1), b);
  // d evicts the LRU line, a, whose block and dirty bit come back intact.
  const AccessOutcome out = c.access(d, false, 4);
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(out.victim, a);
  EXPECT_TRUE(out.victim_dirty);
  EXPECT_TRUE(c.contains(d));
  EXPECT_FALSE(c.contains(a));
}

// The top of the legal range: with one set, a slot's 46 tag bits hold every
// block of four 2^44-block core spans, up to (3 << 44) | (2^44 - 1).
TEST(Cache, HoldsTheTopOfTheLegalBlockRange) {
  SetAssocCache c({1, 2});
  const block_t top = (block_t{1} << SetAssocCache::kTagBits) - 1;
  const block_t span_end = (block_t{1} << 44) - 1;
  EXPECT_FALSE(c.access(top, true, 0).hit);
  EXPECT_FALSE(c.access(span_end, false, 1).hit);
  EXPECT_TRUE(c.contains(top));
  EXPECT_EQ(c.slot_block(0, 0), top);
  EXPECT_EQ(c.slot_block(0, 1), span_end);
  EXPECT_TRUE(c.slot_dirty(0, 0));
  EXPECT_FALSE(c.slot_dirty(0, 1));
  EXPECT_TRUE(c.invalidate(top, 2));
  EXPECT_FALSE(c.slot_valid(0, 0));
  EXPECT_EQ(c.slot_block(0, 0), kInvalidBlock);
  EXPECT_TRUE(c.access(span_end, false, 3).hit);
}

// Slot state is one 8-byte word per slot plus 4 bytes per set: 516 KB for
// the Fig. 3 4 MB L2 (4096 sets x 16 ways).
TEST(Cache, SlotStateIsEightBytesPerSlot) {
  const SetAssocCache l2({4096, 16});
  const std::size_t slots = 4096 * 16;
  EXPECT_LE(l2.state_bytes(), 8 * slots + 4 * 4096);
  const SetAssocCache l1({64, 4});
  EXPECT_LE(l1.state_bytes(), 8 * 64 * 4 + 4 * 64);
  // A copy holds its own slots.
  SetAssocCache copy = l1;
  copy.access(3, false, 0);
  EXPECT_TRUE(copy.contains(3));
  EXPECT_FALSE(l1.contains(3));
}

// Blocks are below ncores << kCoreSpanBits, so a slot's 46 tag bits need
// ncores <= 4 * sets in every cache: the memory system refuses any other
// geometry instead of aliasing tags.
TEST(Cache, MemorySystemRefusesGeometryWhoseTagsCannotFit) {
  SystemConfig cfg = SystemConfig::single_core();
  cfg.l2.geom = CacheGeometry{1024, 16, 64};  // one set
  cfg.l1.geom = CacheGeometry{256, 4, 64};    // one set
  cfg.esteem.modules = 1;
  cfg.l2.banks = 1;
  cfg.ncores = 4;
  EXPECT_NO_THROW(cpu::MemorySystem(cfg, cpu::Technique::BaselinePeriodicAll));
  cfg.ncores = 5;
  EXPECT_THROW(cpu::MemorySystem(cfg, cpu::Technique::BaselinePeriodicAll),
               std::invalid_argument);
  cfg.l2.geom = CacheGeometry{2048, 16, 64};  // two sets: the L2 fits, the L1 not
  EXPECT_THROW(cpu::MemorySystem(cfg, cpu::Technique::BaselinePeriodicAll),
               std::invalid_argument);
  cfg.l1.geom = CacheGeometry{512, 4, 64};
  EXPECT_NO_THROW(cpu::MemorySystem(cfg, cpu::Technique::BaselinePeriodicAll));
}

// Property test: the cache agrees with a reference model (map from block to
// dirty bit with capacity bookkeeping) under random traffic.
class CacheProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheProperty, MatchesReferenceOccupancy) {
  const std::uint32_t ways = GetParam();
  const std::uint32_t sets = 16;
  SetAssocCache c({sets, ways});
  std::unordered_map<block_t, bool> resident;  // block -> dirty
  Rng rng(ways * 977 + 1);

  for (int i = 0; i < 20000; ++i) {
    const block_t blk = rng.below(sets * ways * 4);
    const bool store = rng.chance(0.3);
    const bool expected_hit = resident.count(blk) > 0;
    const AccessOutcome out = c.access(blk, store, i);
    ASSERT_EQ(out.hit, expected_hit) << "block " << blk << " iter " << i;
    if (out.victim != kInvalidBlock) {
      ASSERT_TRUE(resident.count(out.victim));
      ASSERT_EQ(resident[out.victim], out.victim_dirty);
      resident.erase(out.victim);
    }
    resident[blk] = resident.count(blk) ? (resident[blk] || store) : store;
    ASSERT_LE(c.valid_lines(), static_cast<std::uint64_t>(sets) * ways);
    ASSERT_EQ(c.valid_lines(), resident.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Associativities, CacheProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u));

// Reference LRU model, written from the documented contract rather than the
// implementation: each set is a recency list (front = MRU) of its valid
// lines plus an active-way count and a retired-slot mask. A miss fills the
// lowest free usable way, else evicts the list's tail; lru_pos is a hit
// line's index in the list.
class ReferenceLru {
 public:
  ReferenceLru(std::uint32_t sets, std::uint32_t ways)
      : sets_(sets, Set{{}, ways, std::vector<bool>(ways, false)}) {}

  AccessOutcome access(block_t blk, bool is_store) {
    Set& s = sets_[blk % sets_.size()];
    AccessOutcome out;
    const auto it = find_block(s, blk);
    if (it != s.lines.end()) {
      out.hit = true;
      out.way = it->way;
      out.lru_pos = static_cast<std::uint32_t>(std::distance(s.lines.begin(), it));
      it->dirty = it->dirty || is_store;
      s.lines.splice(s.lines.begin(), s.lines, it);
      return out;
    }
    std::uint32_t way = kNoWay;
    for (std::uint32_t w = 0; w < s.active && way == kNoWay; ++w) {
      if (!s.retired[w] && find_way(s, w) == s.lines.end()) way = w;
    }
    if (way == kNoWay) {
      if (s.lines.empty()) return out;  // every active way retired: bypass
      const Line& lru = s.lines.back();
      out.victim = lru.block;
      out.victim_dirty = lru.dirty;
      way = lru.way;
      s.lines.pop_back();
    }
    s.lines.push_front({blk, way, is_store});
    out.way = way;
    return out;
  }

  bool contains(block_t blk) {
    Set& s = sets_[blk % sets_.size()];
    return find_block(s, blk) != s.lines.end();
  }

  bool invalidate(block_t blk) {
    Set& s = sets_[blk % sets_.size()];
    return erase(s, find_block(s, blk));
  }

  bool invalidate_slot(std::uint32_t set, std::uint32_t way) {
    return erase(sets_[set], find_way(sets_[set], way));
  }

  bool disable_slot(std::uint32_t set, std::uint32_t way) {
    Set& s = sets_[set];
    if (s.retired[way]) return false;
    erase(s, find_way(s, way));
    s.retired[way] = true;
    return true;
  }

  /// Returns the (block, dirty) pairs a shrink flushes, in way order.
  std::vector<std::pair<block_t, bool>> resize_set(std::uint32_t set, std::uint32_t active) {
    Set& s = sets_[set];
    std::vector<std::pair<block_t, bool>> flushed;
    for (std::uint32_t w = active; w < s.active; ++w) {
      const auto it = find_way(s, w);
      if (it != s.lines.end()) flushed.emplace_back(it->block, it->dirty);
      erase(s, it);
    }
    s.active = active;
    return flushed;
  }

  std::uint64_t valid_lines() const {
    std::uint64_t n = 0;
    for (const Set& s : sets_) n += s.lines.size();
    return n;
  }

 private:
  struct Line {
    block_t block;
    std::uint32_t way;
    bool dirty;
  };
  struct Set {
    std::list<Line> lines;
    std::uint32_t active;
    std::vector<bool> retired;
  };
  using LineIt = std::list<Line>::iterator;

  static LineIt find_block(Set& s, block_t blk) {
    return std::find_if(s.lines.begin(), s.lines.end(),
                        [&](const Line& l) { return l.block == blk; });
  }
  static LineIt find_way(Set& s, std::uint32_t way) {
    return std::find_if(s.lines.begin(), s.lines.end(),
                        [&](const Line& l) { return l.way == way; });
  }
  static bool erase(Set& s, LineIt it) {
    if (it == s.lines.end()) return false;
    const bool dirty = it->dirty;
    s.lines.erase(it);
    return dirty;
  }

  std::vector<Set> sets_;
};

// Drives a SetAssocCache and a ReferenceLru through the same random
// operations, asserting after each one that the victim choice, dirty bits,
// LRU positions and occupancy agree.
class OracleRun {
 public:
  /// Blocks are drawn just above one of `bases`, picked at random.
  OracleRun(std::uint32_t sets, std::uint32_t ways, int episode,
            std::vector<block_t> bases = {0})
      : c_({sets, ways}), ref_(sets, ways), sets_(sets), ways_(ways), episode_(episode),
        bases_(std::move(bases)), stamps_(sets, 0) {}

  /// Blocks drawn from this many consecutive values above each base.
  std::uint64_t span() const { return std::uint64_t{sets_} * ways_ * 3; }

  const SetAssocCache& cache() const { return c_; }

  /// One random operation at step `i`; the disable_slot draw is skipped
  /// unless `may_retire`.
  void step(Rng& rng, std::uint64_t i, bool may_retire) {
    const cycle_t now = i;
    const std::uint64_t op = rng.below(1000);
    const auto set = static_cast<std::uint32_t>(rng.below(sets_));
    const auto way = static_cast<std::uint32_t>(rng.below(ways_));
    const block_t blk = bases_[rng.below(bases_.size())] + rng.below(span());
    if (op < 850) {
      ASSERT_EQ(c_.contains(blk), ref_.contains(blk)) << "episode " << episode_ << " iter " << i;
      const bool store = rng.chance(0.3);
      const AccessOutcome got = c_.access(blk, store, now);
      const AccessOutcome want = ref_.access(blk, store);
      ASSERT_EQ(got.hit, want.hit) << "episode " << episode_ << " iter " << i;
      ASSERT_EQ(got.way, want.way) << "episode " << episode_ << " iter " << i;
      ASSERT_EQ(got.victim, want.victim) << "episode " << episode_ << " iter " << i;
      ASSERT_EQ(got.victim_dirty, want.victim_dirty)
          << "episode " << episode_ << " iter " << i;
      if (got.hit) {
        ASSERT_EQ(got.lru_pos, want.lru_pos) << "episode " << episode_ << " iter " << i;
      }
      hits += got.hit;
      evictions += (got.victim != kInvalidBlock);
      // A hit or a fill takes one recency stamp from the block's set.
      if (got.way != kNoWay) ++stamps_[c_.set_index_of(blk)];
    } else if (op < 910) {
      ASSERT_EQ(c_.invalidate(blk, now), ref_.invalidate(blk))
          << "episode " << episode_ << " iter " << i;
    } else if (op < 970) {
      ASSERT_EQ(c_.invalidate_slot(set, way, now), ref_.invalidate_slot(set, way))
          << "episode " << episode_ << " iter " << i;
    } else if (op < 997) {
      const auto active = static_cast<std::uint32_t>(1 + rng.below(ways_));
      std::vector<std::pair<block_t, bool>> got;
      c_.resize_set(set, active, now,
                    [&](block_t b, bool dirty) { got.emplace_back(b, dirty); });
      ASSERT_EQ(got, ref_.resize_set(set, active))
          << "episode " << episode_ << " iter " << i;
      ASSERT_EQ(c_.active_ways(set), active);
      flushes += got.size();
    } else if (may_retire) {
      const bool first = ref_.disable_slot(set, way);
      ASSERT_EQ(c_.disable_slot(set, way, now), first)
          << "episode " << episode_ << " iter " << i;
      retired += first;
    }
    ASSERT_EQ(c_.valid_lines(), ref_.valid_lines())
        << "episode " << episode_ << " iter " << i;
  }

  /// Recency stamps set `set` has handed out (hits plus fills).
  std::uint64_t stamps(std::uint32_t set) const { return stamps_[set]; }

  std::uint64_t hits = 0, evictions = 0, flushes = 0, retired = 0;

 private:
  SetAssocCache c_;
  ReferenceLru ref_;
  std::uint32_t sets_;
  std::uint32_t ways_;
  int episode_;
  std::vector<block_t> bases_;
  std::vector<std::uint64_t> stamps_;
};

// SetAssocCache against ReferenceLru under random interleavings of every
// state-changing operation.
class CacheOracle : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CacheOracle, MatchesReferenceLru) {
  const std::uint32_t ways = GetParam();
  Rng rng(ways * 7919 + 3);

  // Short episodes on fresh caches, so retired slots never pile up into a
  // cache that only bypasses.
  std::uint64_t hits = 0, evictions = 0, flushes = 0, retired = 0;
  for (int episode = 0; episode < 40; ++episode) {
    OracleRun run(4, ways, episode);
    ASSERT_TRUE(run.cache().lru_tracking());
    for (std::uint64_t i = 0; i < 1000; ++i) {
      run.step(rng, i, true);
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(run.cache().disabled_slots(), run.retired);
    hits += run.hits;
    evictions += run.evictions;
    flushes += run.flushes;
    retired += run.retired;
  }
  // Every branch of the model was reached.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(evictions, 0u);
  EXPECT_GT(retired, 0u);
  if (ways > 1) {
    EXPECT_GT(flushes, 0u);
  }

  // One long episode on two sets: each set's 16-bit LRU clock wraps at
  // least six times (twice above 64 ways, where the list-based reference
  // makes each operation several times slower), so stamp renumbering runs
  // amid every other operation. Slots retire only in the last tenth:
  // retired slots soon leave a set one usable way, whose recency order
  // nothing can get wrong.
  const std::uint64_t wraps = ways > 64 ? 2 : 6;
  const std::uint64_t live_ops = wraps * 180'000;
  const std::uint64_t retire_ops = wraps * 20'000;
  OracleRun run(2, ways, 40);
  for (std::uint64_t i = 0; i < live_ops + retire_ops; ++i) {
    if (i == live_ops) {
      for (std::uint32_t set = 0; set < 2; ++set) {
        EXPECT_GE(run.stamps(set), wraps * 65536u) << "set " << set;
      }
    }
    run.step(rng, i, i >= live_ops);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(run.hits, 0u);
  EXPECT_GT(run.evictions, 0u);
  EXPECT_EQ(run.cache().disabled_slots(), run.retired);
}

// The same oracle over blocks spanning the whole legal range of a 4-set
// cache: core spans 1-3 (c << 44), the top of a span (2^44 - 1) and of the
// range, and bases whose blocks share a set and a low tag word with the
// base-0 blocks, their tags differing only at bit 32 or 40.
TEST_P(CacheOracle, MatchesReferenceLruAcrossTheTagRange) {
  const std::uint32_t ways = GetParam();
  const std::uint64_t span = std::uint64_t{4} * ways * 3;
  const std::vector<block_t> bases{
      0,
      block_t{4} << 32,
      block_t{4} << 40,
      block_t{1} << 44,
      block_t{2} << 44,
      block_t{3} << 44,
      (block_t{1} << 44) - span,
      (block_t{4} << SetAssocCache::kTagBits) - span};
  Rng rng(ways * 104'729 + 11);
  std::uint64_t hits = 0, evictions = 0;
  for (int episode = 0; episode < 20; ++episode) {
    OracleRun run(4, ways, episode, bases);
    for (std::uint64_t i = 0; i < 1000; ++i) {
      run.step(rng, i, true);
      if (HasFatalFailure()) return;
    }
    hits += run.hits;
    evictions += run.evictions;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_GT(evictions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Associativities, CacheOracle,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 16u, 32u, 33u, 64u, 256u));

// LRU stack-inclusion property: running the same stream against a cache
// with k active ways hits exactly the accesses whose recency position in
// the fully-associative run is < k. This is the property that makes
// ESTEEM's LRU-position histogram an exact predictor of hit loss (§3.1).
class StackInclusion : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(StackInclusion, ShrunkCacheHitsMatchShallowPositions) {
  const std::uint32_t active = GetParam();
  constexpr std::uint32_t kSets = 8;
  constexpr std::uint32_t kWays = 8;

  SetAssocCache full({kSets, kWays});
  SetAssocCache shrunk({kSets, kWays});
  for (std::uint32_t s = 0; s < kSets; ++s) shrunk.resize_set(s, active, 0, nullptr);

  Rng rng(active * 1009 + 13);
  std::uint64_t shallow_hits = 0;
  std::uint64_t shrunk_hits = 0;
  for (int i = 0; i < 30000; ++i) {
    const block_t blk = rng.below(kSets * kWays * 3);
    const AccessOutcome f = full.access(blk, false, i);
    const AccessOutcome s = shrunk.access(blk, false, i);
    const bool expect_hit = f.hit && f.lru_pos < active;
    ASSERT_EQ(s.hit, expect_hit) << "block " << blk << " iter " << i;
    shallow_hits += expect_hit;
    shrunk_hits += s.hit;
  }
  EXPECT_EQ(shrunk_hits, shallow_hits);
  EXPECT_GT(shrunk_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(ActiveWays, StackInclusion,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 8u));

TEST(ModuleMap, PartitionsSets) {
  ModuleMap m(4096, 8);
  EXPECT_EQ(m.modules(), 8u);
  EXPECT_EQ(m.sets_per_module(), 512u);
  EXPECT_EQ(m.module_of(0), 0u);
  EXPECT_EQ(m.module_of(511), 0u);
  EXPECT_EQ(m.module_of(512), 1u);
  EXPECT_EQ(m.module_of(4095), 7u);
  EXPECT_EQ(m.first_set(3), 1536u);
}

TEST(ModuleMap, RejectsNonDivisors) {
  EXPECT_THROW(ModuleMap(4096, 3), std::invalid_argument);
  EXPECT_THROW(ModuleMap(0, 1), std::invalid_argument);
  EXPECT_THROW(ModuleMap(8, 0), std::invalid_argument);
}

}  // namespace
}  // namespace esteem::cache
