// Oracle tests for the refresh-policy boundary scans. RPD, Smart Refresh and
// Cache Decay walk only the slots listed in an edram::LiveSlots; the
// reference policies below are the earlier full-scan implementations, which
// visit every (set, way) slot in order at every boundary. Twin caches, one
// per implementation, take the same seeded stream of fills, hits,
// invalidations and boundary advances, and must agree after every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "edram/decay.hpp"
#include "edram/live_slots.hpp"
#include "edram/smart_refresh.hpp"
#include "refrint/rpv.hpp"

namespace esteem {
namespace {

// --- Reference full-scan policies -------------------------------------------

/// Refrint RPD with a per-slot live byte and a full scan per phase boundary.
class FullScanRpd final : public cache::LineListener {
 public:
  FullScanRpd(cache::SetAssocCache& cache, std::uint32_t phases, cycle_t retention)
      : cache_(cache), sets_(cache.sets()), ways_(cache.ways()), phases_(phases) {
    phase_len_ = retention / phases;
    next_boundary_ = phase_len_;
    tag_.assign(static_cast<std::size_t>(sets_) * ways_, 0);
    live_.assign(tag_.size(), 0);
    phase_valid_.assign(phases_, 0);
    recent_.assign(phases_, 0);
  }

  std::uint64_t advance(cycle_t now) {
    std::uint64_t refreshed = 0;
    while (next_boundary_ <= now) {
      const std::uint32_t p = phase_of(next_boundary_);
      const std::uint64_t n = refresh_due(p, next_boundary_);
      refreshed += n;
      recent_[recent_pos_] = n;
      recent_pos_ = (recent_pos_ + 1) % phases_;
      next_boundary_ += phase_len_;
    }
    return refreshed;
  }

  double refresh_lines_per_period() const {
    return static_cast<double>(
        std::accumulate(recent_.begin(), recent_.end(), std::uint64_t{0}));
  }
  std::uint64_t valid_lines() const { return valid_; }
  std::uint64_t phase_count(std::uint32_t p) const { return phase_valid_[p]; }

  void on_fill(std::uint32_t set, std::uint32_t way, block_t, cycle_t now) override {
    const std::size_t i = idx(set, way);
    const std::uint32_t p = phase_of(now);
    live_[i] = 1;
    tag_[i] = static_cast<std::uint8_t>(p);
    ++phase_valid_[p];
    ++valid_;
  }
  void on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) override {
    const std::size_t i = idx(set, way);
    const std::uint32_t p = phase_of(now);
    --phase_valid_[tag_[i]];
    tag_[i] = static_cast<std::uint8_t>(p);
    ++phase_valid_[p];
  }
  void on_invalidate(std::uint32_t set, std::uint32_t way, bool, cycle_t) override {
    const std::size_t i = idx(set, way);
    live_[i] = 0;
    --phase_valid_[tag_[i]];
    --valid_;
  }

 private:
  std::uint64_t refresh_due(std::uint32_t p, cycle_t t) {
    std::uint64_t refreshed = 0;
    for (std::uint32_t s = 0; s < sets_; ++s) {
      for (std::uint32_t w = 0; w < ways_; ++w) {
        const std::size_t i = idx(s, w);
        if (!live_[i] || tag_[i] != p) continue;
        if (cache_.slot_dirty(s, w)) {
          ++refreshed;
        } else {
          cache_.invalidate_slot(s, w, t);
        }
      }
    }
    return refreshed;
  }
  std::uint32_t phase_of(cycle_t now) const {
    return static_cast<std::uint32_t>((now / phase_len_) % phases_);
  }
  std::size_t idx(std::uint32_t set, std::uint32_t way) const {
    return static_cast<std::size_t>(set) * ways_ + way;
  }

  cache::SetAssocCache& cache_;
  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t phases_;
  cycle_t phase_len_;
  cycle_t next_boundary_;
  std::vector<std::uint8_t> tag_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint64_t> phase_valid_;
  std::uint64_t valid_ = 0;
  std::vector<std::uint64_t> recent_;
  std::size_t recent_pos_ = 0;
};

/// Smart Refresh with a per-slot live byte and a full scan per check.
class FullScanSmart final : public cache::LineListener {
 public:
  FullScanSmart(std::uint32_t sets, std::uint32_t ways, cycle_t retention,
                cycle_t check_period)
      : ways_(ways),
        retention_(retention),
        check_period_(check_period),
        next_check_(check_period) {
    live_.assign(static_cast<std::size_t>(sets) * ways, 0);
    last_touch_.assign(live_.size(), 0);
    recent_.assign(std::max<cycle_t>(1, retention_ / check_period_), 0);
  }

  std::uint64_t advance(cycle_t now) {
    std::uint64_t refreshed = 0;
    while (next_check_ <= now) {
      std::uint64_t this_check = 0;
      const cycle_t t = next_check_;
      for (std::size_t i = 0; i < live_.size(); ++i) {
        if (!live_[i]) continue;
        if (t + check_period_ - last_touch_[i] > retention_) {
          last_touch_[i] = t;
          ++this_check;
        }
      }
      refreshed += this_check;
      recent_[recent_pos_] = this_check;
      recent_pos_ = (recent_pos_ + 1) % recent_.size();
      next_check_ += check_period_;
    }
    return refreshed;
  }

  double refresh_lines_per_period() const {
    return static_cast<double>(
        std::accumulate(recent_.begin(), recent_.end(), std::uint64_t{0}));
  }
  std::uint64_t valid_lines() const { return valid_; }

  void on_fill(std::uint32_t set, std::uint32_t way, block_t, cycle_t now) override {
    const std::size_t i = idx(set, way);
    live_[i] = 1;
    last_touch_[i] = now;
    ++valid_;
  }
  void on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) override {
    last_touch_[idx(set, way)] = now;
  }
  void on_invalidate(std::uint32_t set, std::uint32_t way, bool, cycle_t) override {
    live_[idx(set, way)] = 0;
    --valid_;
  }

 private:
  std::size_t idx(std::uint32_t set, std::uint32_t way) const {
    return static_cast<std::size_t>(set) * ways_ + way;
  }

  std::uint32_t ways_;
  cycle_t retention_;
  cycle_t check_period_;
  cycle_t next_check_;
  std::vector<std::uint8_t> live_;
  std::vector<cycle_t> last_touch_;
  std::uint64_t valid_ = 0;
  std::vector<std::uint64_t> recent_;
  std::size_t recent_pos_ = 0;
};

/// Cache Decay with a per-slot live byte and a full scan per decay check.
class FullScanDecay final : public cache::LineListener {
 public:
  FullScanDecay(cache::SetAssocCache& cache, cycle_t retention, cycle_t decay_interval,
                cycle_t check_period)
      : cache_(cache),
        sets_(cache.sets()),
        ways_(cache.ways()),
        retention_(retention),
        decay_interval_(decay_interval),
        check_period_(check_period),
        next_check_(check_period),
        next_refresh_(retention) {
    const std::size_t slots = static_cast<std::size_t>(sets_) * ways_;
    live_.assign(slots, 0);
    powered_.assign(slots, 1);
    last_touch_.assign(slots, 0);
    powered_count_ = slots;
  }

  std::uint64_t advance(cycle_t now) {
    std::uint64_t refreshed = 0;
    while (next_check_ <= now || next_refresh_ <= now) {
      if (next_check_ <= std::min(now, next_refresh_)) {
        const cycle_t t = next_check_;
        for (std::uint32_t s = 0; s < sets_; ++s) {
          for (std::uint32_t w = 0; w < ways_; ++w) {
            const std::size_t i = idx(s, w);
            if (!live_[i] || t - last_touch_[i] < decay_interval_) continue;
            const bool dirty = cache_.invalidate_slot(s, w, t);
            if (dirty) ++decay_writebacks_;
            powered_[i] = 0;
            --powered_count_;
            ++transitions_;
            ++decayed_;
          }
        }
        next_check_ += check_period_;
      } else {
        refreshed += valid_;
        next_refresh_ += retention_;
      }
    }
    return refreshed;
  }

  double refresh_lines_per_period() const { return static_cast<double>(valid_); }
  std::uint64_t valid_lines() const { return valid_; }
  std::uint64_t transitions() const { return transitions_; }
  std::uint64_t decayed_lines() const { return decayed_; }
  std::uint64_t decay_writebacks() const { return decay_writebacks_; }
  double active_fraction() const {
    return static_cast<double>(powered_count_) /
           static_cast<double>(static_cast<std::size_t>(sets_) * ways_);
  }

  void on_fill(std::uint32_t set, std::uint32_t way, block_t, cycle_t now) override {
    const std::size_t i = idx(set, way);
    if (!powered_[i]) {
      powered_[i] = 1;
      ++powered_count_;
      ++transitions_;
    }
    live_[i] = 1;
    last_touch_[i] = now;
    ++valid_;
  }
  void on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) override {
    last_touch_[idx(set, way)] = now;
  }
  void on_invalidate(std::uint32_t set, std::uint32_t way, bool, cycle_t) override {
    live_[idx(set, way)] = 0;
    --valid_;
  }

 private:
  std::size_t idx(std::uint32_t set, std::uint32_t way) const {
    return static_cast<std::size_t>(set) * ways_ + way;
  }

  cache::SetAssocCache& cache_;
  std::uint32_t sets_;
  std::uint32_t ways_;
  cycle_t retention_;
  cycle_t decay_interval_;
  cycle_t check_period_;
  cycle_t next_check_;
  cycle_t next_refresh_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint8_t> powered_;
  std::vector<cycle_t> last_touch_;
  std::uint64_t valid_ = 0;
  std::uint64_t powered_count_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t decayed_ = 0;
  std::uint64_t decay_writebacks_ = 0;
};

// --- Twin caches ------------------------------------------------------------

constexpr std::uint32_t kSets = 64;
constexpr std::uint32_t kWays = 4;
constexpr std::uint32_t kSlots = kSets * kWays;
constexpr cycle_t kRetention = 2000;
constexpr std::uint32_t kPhases = 4;

/// One access stream shape. `universe` bounds the distinct blocks, so it
/// sets how full the cache can get.
struct Stream {
  const char* name;
  std::uint64_t universe;
  double store;
  double invalidate;       ///< Share of steps that invalidate a block.
  double invalidate_slot;  ///< Share of steps that invalidate a random slot.
  double jump;             ///< Share of steps that skip several boundaries.
};

constexpr Stream kSparse{"sparse", 6, 0.3, 0.05, 0.02, 0.002};
constexpr Stream kFull{"full", 8 * kSlots, 0.3, 0.002, 0.002, 0.002};
// Two blocks per set, so nothing is evicted: every refill follows an
// explicit invalidation.
constexpr Stream kChurn{"churn", kSlots / 2, 0.4, 0.2, 0.1, 0.002};

constexpr int kSteps = 20000;
constexpr std::uint64_t kSeeds = 4;

/// What one run covered, so each test can check that its stream reached the
/// case it is meant to reach.
struct Coverage {
  double max_fill = 0.0;
  std::uint64_t boundaries = 0;         ///< advance() calls that changed an observable.
  std::uint64_t scan_invalidations = 0; ///< Lines the policy's scans invalidated.
  std::uint64_t refills = 0;            ///< Fills of a slot emptied since the last scan.
};

using Observation = std::vector<double>;

/// Drives `real` and `ref` (each registered as its cache's listener) through
/// kSteps seeded steps and requires identical outcomes after each one;
/// folds what the run reached into `cov`. The policy scans its lines every
/// `scan_period` cycles.
template <class Real, class Ref, class Observe>
void run_twins(cache::SetAssocCache& a, Real& real, cache::SetAssocCache& b, Ref& ref,
               const Stream& st, std::uint64_t seed, cycle_t scan_period, Observe observe,
               Coverage& cov) {
  Rng rng(seed);
  std::vector<std::uint8_t> emptied(kSlots, 0);
  cycle_t now = 0;
  for (int step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(testing::Message() << st.name << " seed " << seed << " step " << step);
    const cycle_t dt =
        rng.chance(st.jump) ? kRetention / 2 + rng.below(3 * kRetention) : 1 + rng.below(4);
    now += dt;
    const std::uint64_t before = a.valid_lines();
    const Observation obs_before = observe(real);
    ASSERT_EQ(real.advance(now), ref.advance(now));
    ASSERT_EQ(observe(real), observe(ref));
    cov.scan_invalidations += before - a.valid_lines();
    if (observe(real) != obs_before) ++cov.boundaries;
    if (now / scan_period != (now - dt) / scan_period) {
      std::fill(emptied.begin(), emptied.end(), 0);
    }

    const double op = rng.uniform();
    if (op < st.invalidate) {
      const block_t blk = rng.below(st.universe);
      const std::uint32_t set = a.set_index_of(blk);
      for (std::uint32_t w = 0; w < kWays; ++w) {
        if (a.slot_valid(set, w) && a.slot_block(set, w) == blk) emptied[set * kWays + w] = 1;
      }
      ASSERT_EQ(a.invalidate(blk, now), b.invalidate(blk, now));
    } else if (op < st.invalidate + st.invalidate_slot) {
      const auto set = static_cast<std::uint32_t>(rng.below(kSets));
      const auto way = static_cast<std::uint32_t>(rng.below(kWays));
      if (a.slot_valid(set, way)) emptied[set * kWays + way] = 1;
      ASSERT_EQ(a.invalidate_slot(set, way, now), b.invalidate_slot(set, way, now));
    } else {
      const block_t blk = rng.below(st.universe);
      const bool store = rng.chance(st.store);
      const cache::AccessOutcome got = a.access(blk, store, now);
      const cache::AccessOutcome want = b.access(blk, store, now);
      ASSERT_EQ(got.hit, want.hit);
      ASSERT_EQ(got.way, want.way);
      ASSERT_EQ(got.victim, want.victim);
      ASSERT_EQ(got.victim_dirty, want.victim_dirty);
      if (!got.hit && got.way != cache::kNoWay) {
        const std::uint32_t i = a.set_index_of(blk) * kWays + got.way;
        // An eviction empties and refills the slot in one access.
        if (emptied[i] || got.victim != kInvalidBlock) ++cov.refills;
      }
    }

    ASSERT_EQ(observe(real), observe(ref));
    ASSERT_EQ(a.valid_lines(), b.valid_lines());
    for (std::uint32_t s = 0; s < kSets; ++s) {
      for (std::uint32_t w = 0; w < kWays; ++w) {
        ASSERT_EQ(a.slot_valid(s, w), b.slot_valid(s, w)) << "slot " << s << "," << w;
        ASSERT_EQ(a.slot_dirty(s, w), b.slot_dirty(s, w)) << "slot " << s << "," << w;
        if (a.slot_valid(s, w)) {
          ASSERT_EQ(a.slot_block(s, w), b.slot_block(s, w));
        }
      }
    }
    cov.max_fill = std::max(cov.max_fill, static_cast<double>(a.valid_lines()) / kSlots);
  }
}

void run_rpd(const Stream& st, std::uint64_t seed, Coverage& cov) {
  cache::SetAssocCache a({kSets, kWays}), b({kSets, kWays});
  refrint::PolyphaseDirtyPolicy real(a, kPhases, kRetention);
  FullScanRpd ref(b, kPhases, kRetention);
  a.set_listener(&real);
  b.set_listener(&ref);
  run_twins(a, real, b, ref, st, seed, kRetention / kPhases, [](const auto& p) {
    Observation o{p.refresh_lines_per_period(), static_cast<double>(p.valid_lines())};
    for (std::uint32_t ph = 0; ph < kPhases; ++ph) {
      o.push_back(static_cast<double>(p.phase_count(ph)));
    }
    return o;
  }, cov);
}

void run_smart(const Stream& st, std::uint64_t seed, Coverage& cov) {
  cache::SetAssocCache a({kSets, kWays}), b({kSets, kWays});
  edram::SmartRefreshPolicy real(kSets, kWays, kRetention, kRetention / kPhases);
  FullScanSmart ref(kSets, kWays, kRetention, kRetention / kPhases);
  a.set_listener(&real);
  b.set_listener(&ref);
  run_twins(a, real, b, ref, st, seed, kRetention / kPhases, [](const auto& p) {
    return Observation{p.refresh_lines_per_period(), static_cast<double>(p.valid_lines())};
  }, cov);
}

void run_decay(const Stream& st, std::uint64_t seed, Coverage& cov) {
  cache::SetAssocCache a({kSets, kWays}), b({kSets, kWays});
  // Checks twice per retention period; lines idle for 3/4 of one decay.
  edram::CacheDecayPolicy real(a, kRetention, 3 * kRetention / 4, kRetention / 2);
  FullScanDecay ref(b, kRetention, 3 * kRetention / 4, kRetention / 2);
  a.set_listener(&real);
  b.set_listener(&ref);
  run_twins(a, real, b, ref, st, seed, kRetention / 2, [](const auto& p) {
    return Observation{p.refresh_lines_per_period(),
                       static_cast<double>(p.valid_lines()),
                       static_cast<double>(p.transitions()),
                       static_cast<double>(p.decayed_lines()),
                       static_cast<double>(p.decay_writebacks()),
                       p.active_fraction()};
  }, cov);
}

/// Runs every seed of one policy and stream; the merged coverage.
Coverage run_seeds(void (*run)(const Stream&, std::uint64_t, Coverage&), const Stream& st) {
  Coverage all;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    run(st, seed * 7919 + st.universe, all);
    if (testing::Test::HasFatalFailure()) break;
  }
  return all;
}

// --- LiveSlots on its own ----------------------------------------------------

TEST(PolicyScan, LiveSlotsVisitsEachLiveSlotOnce) {
  constexpr std::uint32_t kN = 97;
  edram::LiveSlots slots(kN);
  std::set<std::uint32_t> want;
  Rng rng(11);
  for (int step = 0; step < 20000; ++step) {
    const auto i = static_cast<std::uint32_t>(rng.below(kN));
    const double op = rng.uniform();
    if (op < 0.45) {
      slots.insert(i);
      want.insert(i);
    } else if (op < 0.9) {
      slots.erase(i);
      want.erase(i);
    } else {
      // The scan erases about a third of the slots it visits.
      const std::set<std::uint32_t> live_before = want;
      std::vector<std::uint32_t> seen;
      slots.for_each([&](std::uint32_t v) {
        seen.push_back(v);
        if (rng.chance(0.3)) {
          slots.erase(v);
          want.erase(v);
        }
      });
      std::sort(seen.begin(), seen.end());
      ASSERT_EQ(std::vector<std::uint32_t>(live_before.begin(), live_before.end()), seen)
          << "the walk must visit each live slot exactly once, step " << step;
      // After a walk the list holds exactly the live slots.
      ASSERT_EQ(slots.listed(), want.size()) << "step " << step;
    }
    ASSERT_LE(slots.listed(), kN);
  }
}

TEST(PolicyScan, LiveSlotsRefilledSlotListedOnce) {
  edram::LiveSlots slots(8);
  slots.insert(3);
  slots.erase(3);
  slots.insert(3);  // refilled before any walk: still one entry
  slots.insert(5);
  slots.erase(5);   // erased, listed until the next walk
  EXPECT_EQ(slots.listed(), 2u);
  int visits = 0;
  slots.for_each([&](std::uint32_t i) {
    EXPECT_EQ(i, 3u);
    ++visits;
  });
  EXPECT_EQ(visits, 1);
  EXPECT_EQ(slots.listed(), 1u);
}

// --- Policies against their full-scan references -----------------------------

TEST(PolicyScan, RpdMatchesFullScanNearlyEmpty) {
  const Coverage c = run_seeds(run_rpd, kSparse);
  EXPECT_LE(c.max_fill, 0.05);
  EXPECT_GT(c.boundaries, 0u);
  EXPECT_GT(c.scan_invalidations, 0u);
}

TEST(PolicyScan, RpdMatchesFullScanNearlyFull) {
  const Coverage c = run_seeds(run_rpd, kFull);
  EXPECT_GE(c.max_fill, 0.95);
  EXPECT_GT(c.scan_invalidations, 0u);
  EXPECT_GT(c.refills, 0u);
}

TEST(PolicyScan, RpdMatchesFullScanUnderChurn) {
  const Coverage c = run_seeds(run_rpd, kChurn);
  EXPECT_GT(c.refills, 0u);
  EXPECT_GT(c.scan_invalidations, 0u);
}

TEST(PolicyScan, SmartRefreshMatchesFullScanNearlyEmpty) {
  const Coverage c = run_seeds(run_smart, kSparse);
  EXPECT_LE(c.max_fill, 0.05);
  EXPECT_GT(c.boundaries, 0u);
}

TEST(PolicyScan, SmartRefreshMatchesFullScanNearlyFull) {
  const Coverage c = run_seeds(run_smart, kFull);
  EXPECT_GE(c.max_fill, 0.95);
  EXPECT_GT(c.refills, 0u);
}

TEST(PolicyScan, SmartRefreshMatchesFullScanUnderChurn) {
  const Coverage c = run_seeds(run_smart, kChurn);
  EXPECT_GT(c.refills, 0u);
  EXPECT_GT(c.boundaries, 0u);
}

TEST(PolicyScan, CacheDecayMatchesFullScanNearlyEmpty) {
  const Coverage c = run_seeds(run_decay, kSparse);
  EXPECT_LE(c.max_fill, 0.05);
  EXPECT_GT(c.scan_invalidations, 0u);
}

TEST(PolicyScan, CacheDecayMatchesFullScanNearlyFull) {
  const Coverage c = run_seeds(run_decay, kFull);
  EXPECT_GE(c.max_fill, 0.95);
  EXPECT_GT(c.scan_invalidations, 0u);
  EXPECT_GT(c.refills, 0u);
}

TEST(PolicyScan, CacheDecayMatchesFullScanUnderChurn) {
  const Coverage c = run_seeds(run_decay, kChurn);
  EXPECT_GT(c.refills, 0u);
  EXPECT_GT(c.scan_invalidations, 0u);
}

}  // namespace
}  // namespace esteem
