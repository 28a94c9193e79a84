#include "cache/cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace esteem::cache {

SetAssocCache::SetAssocCache(const CacheParams& params, std::string name)
    : sets_(params.sets), ways_(params.ways), name_(std::move(name)) {
  if (sets_ == 0 || ways_ == 0) {
    throw std::invalid_argument("SetAssocCache: sets and ways must be >= 1");
  }
  if (ways_ > kMaxWays) {
    throw std::invalid_argument("SetAssocCache: at most " + std::to_string(kMaxWays) +
                                " ways");
  }
  if (!is_pow2(sets_)) {
    throw std::invalid_argument("SetAssocCache: set count must be a power of two");
  }
  set_bits_ = static_cast<unsigned>(std::countr_zero(sets_));
  slots_ = PageArray<std::uint64_t>(static_cast<std::size_t>(sets_) * ways_);
  set_state_.assign(sets_, SetState{static_cast<std::uint16_t>(ways_), 0});
}

AccessOutcome SetAssocCache::access(block_t blk, bool is_store, cycle_t now, bool rank) {
  const std::uint64_t tag = tag_of(blk);
  AccessOutcome out;
  const std::uint32_t set = set_index_of(blk);
  const std::uint32_t active = set_state_[set].active;
  std::uint64_t* slots = &slots_[idx(set, 0)];

  const std::uint32_t way = find_way(slots, active, tag);
  if (way != kNoWay) {
    out.hit = true;
    out.way = way;
    if (rank) {
      // Recency position: count valid lines touched more recently. Computed
      // only when a consumer (the ESTEEM leader-set profiler) asked for it.
      // The two tests are combined with & rather than && so the count, like
      // the match, has no branch per way.
      const std::uint16_t mine = stamp_of(slots[way]);
      std::uint32_t pos = 0;
      for (std::uint32_t v = 0; v < active; ++v) {
        pos += static_cast<std::uint32_t>((slots[v] & kValid) != 0) &
               static_cast<std::uint32_t>(stamp_of(slots[v]) > mine);
      }
      out.lru_pos = pos;
    }
    set_stamp(slots[way], next_stamp(set));
    if (is_store) slots[way] |= kDirty;
    ++stats_.hits;
    if (touch_listener_ != nullptr) touch_listener_->on_touch(set, way, now);
    return out;
  }

  ++stats_.misses;
  // Victim selection: the first empty usable slot, else the LRU valid line.
  // Retired slots are never allocated.
  std::uint32_t victim = kNoWay;
  std::uint32_t oldest = UINT32_MAX;
  for (std::uint32_t w = 0; w < active; ++w) {
    if ((slots[w] & kValid) == 0) {
      if ((slots[w] & kRetired) == 0) {
        victim = w;
        break;
      }
    } else if (stamp_of(slots[w]) < oldest) {
      oldest = stamp_of(slots[w]);
      victim = w;
    }
  }
  if (victim == kNoWay) return out;  // every usable way disabled: bypass

  if ((slots[victim] & kValid) != 0) {
    out.victim = block_of(slots[victim], set);
    out.victim_dirty = (slots[victim] & kDirty) != 0;
    ++stats_.evictions;
    if (out.victim_dirty) ++stats_.dirty_evictions;
    --valid_count_;
    if (listener_ != nullptr) {
      listener_->on_invalidate(set, victim, out.victim_dirty, now);
    }
  }

  slots[victim] = tag | kValid | (is_store ? kDirty : 0);
  set_stamp(slots[victim], next_stamp(set));
  ++valid_count_;
  out.way = victim;
  if (listener_ != nullptr) listener_->on_fill(set, victim, blk, now);
  return out;
}

void SetAssocCache::renormalize(std::uint32_t set) {
  std::uint64_t* slots = &slots_[idx(set, 0)];
  std::array<std::uint8_t, kMaxWays> order;  // valid ways, oldest first
  std::uint32_t n = 0;
  for (std::uint32_t w = 0; w < set_state_[set].active; ++w) {
    if ((slots[w] & kValid) != 0) order[n++] = static_cast<std::uint8_t>(w);
  }
  std::sort(order.begin(), order.begin() + n, [&](std::uint8_t a, std::uint8_t b) {
    return stamp_of(slots[a]) < stamp_of(slots[b]);
  });
  for (std::uint32_t r = 0; r < n; ++r) {
    set_stamp(slots[order[r]], static_cast<std::uint16_t>(r + 1));
  }
  set_state_[set].clock = static_cast<std::uint16_t>(n);
}

bool SetAssocCache::drop(std::uint32_t set, std::uint32_t way, cycle_t now) {
  std::uint64_t& slot = slots_[idx(set, way)];
  const bool was_dirty = (slot & kDirty) != 0;
  slot &= ~kState;
  --valid_count_;
  if (listener_ != nullptr) listener_->on_invalidate(set, way, was_dirty, now);
  return was_dirty;
}

bool SetAssocCache::contains(block_t blk) const noexcept {
  const std::uint32_t set = set_index_of(blk);
  return find_way(&slots_[idx(set, 0)], set_state_[set].active, tag_of(blk)) != kNoWay;
}

bool SetAssocCache::invalidate(block_t blk, cycle_t now) {
  const std::uint32_t set = set_index_of(blk);
  const std::uint32_t way =
      find_way(&slots_[idx(set, 0)], set_state_[set].active, tag_of(blk));
  return way != kNoWay && drop(set, way, now);
}

bool SetAssocCache::invalidate_slot(std::uint32_t set, std::uint32_t way, cycle_t now) {
  if (set >= sets_ || way >= ways_) {
    throw std::out_of_range("invalidate_slot: bad slot");
  }
  if (!slot_valid(set, way)) return false;
  return drop(set, way, now);
}

bool SetAssocCache::disable_slot(std::uint32_t set, std::uint32_t way, cycle_t now) {
  if (set >= sets_ || way >= ways_) {
    throw std::out_of_range("disable_slot: bad slot");
  }
  if (slot_disabled(set, way)) return false;
  invalidate_slot(set, way, now);
  slots_[idx(set, way)] |= kRetired;
  ++disabled_count_;
  return true;
}

void SetAssocCache::resize_set(std::uint32_t set, std::uint32_t new_active, cycle_t now,
                               const std::function<void(block_t, bool)>& on_evict) {
  if (set >= sets_) throw std::out_of_range("resize_set: bad set index");
  if (new_active == 0 || new_active > ways_) {
    throw std::invalid_argument("resize_set: active count must be in [1, ways]");
  }
  // Shrinking: flush lines in the deactivated ways. The reconfiguration
  // happens off the critical access path (paper §5), but the listener still
  // sees the true reconfiguration cycle so timestamp-keeping refresh
  // policies stay consistent.
  for (std::uint32_t w = new_active; w < set_state_[set].active; ++w) {
    if (!slot_valid(set, w)) continue;
    const bool was_dirty = slot_dirty(set, w);
    if (on_evict) on_evict(slot_block(set, w), was_dirty);
    drop(set, w, now);
    ++stats_.evictions;
    if (was_dirty) ++stats_.dirty_evictions;
  }
  set_state_[set].active = static_cast<std::uint16_t>(new_active);
}

}  // namespace esteem::cache
