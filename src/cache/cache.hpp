// Set-associative cache with true-LRU replacement, per-set active-way
// masking (selective-ways reconfiguration, paper §3.1/§5), dirty bits, and a
// line-lifecycle listener hook that the eDRAM refresh policies subscribe to.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/page_array.hpp"
#include "common/types.hpp"

namespace esteem::cache {

struct CacheParams {
  std::uint32_t sets = 1;
  std::uint32_t ways = 1;
};

/// Observer of line lifecycle events. All callbacks identify the line by its
/// (set, way) slot so policies can keep flat per-slot state.
class LineListener {
 public:
  virtual ~LineListener() = default;
  virtual void on_fill(std::uint32_t set, std::uint32_t way, block_t blk, cycle_t now) = 0;
  virtual void on_touch(std::uint32_t set, std::uint32_t way, cycle_t now) = 0;
  virtual void on_invalidate(std::uint32_t set, std::uint32_t way, bool dirty,
                             cycle_t now) = 0;

  /// Fast-lane opt-out: a listener with no per-touch state (empty on_touch)
  /// returns false and the cache skips the virtual dispatch on every hit —
  /// the hottest call site in the simulator. Queried once, at
  /// set_listener() time.
  virtual bool wants_touch() const noexcept { return true; }
};

/// Sentinel way index: the access neither hit nor allocated a slot (every
/// usable way of the set was disabled).
inline constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

struct AccessOutcome {
  bool hit = false;
  /// Way of the slot the block occupies after the access (hit or fill);
  /// kNoWay when the access could not allocate.
  std::uint32_t way = kNoWay;
  /// On a hit the access ranked (LRU-position tracking on, the default, or
  /// `rank` set): recency position of the line among valid lines in its set
  /// (0 = MRU). Undefined on a miss or an unranked hit.
  std::uint32_t lru_pos = 0;
  /// On a miss that evicted a victim: the victim block, else kInvalidBlock.
  block_t victim = kInvalidBlock;
  bool victim_dirty = false;
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t dirty_evictions = 0;

  std::uint64_t accesses() const noexcept { return hits + misses; }
};

/// The storage/replacement core shared by L1, L2, and (implicitly, via the
/// never-reconfigured leader sets) the embedded ATD.
///
/// Invariants: valid lines live only in physical ways [0, active_ways(set)).
/// A slot stores its block's tag without the set-index bits, in kTagBits
/// bits, so every block named must be below sets() << kTagBits.
class SetAssocCache {
 public:
  /// Tag bits a slot holds above the set index.
  static constexpr unsigned kTagBits = 46;

  /// Throws std::invalid_argument unless sets is a power of two and
  /// 1 <= ways <= kMaxWays.
  SetAssocCache(const CacheParams& params, std::string name = "cache");

  std::uint32_t sets() const noexcept { return sets_; }
  std::uint32_t ways() const noexcept { return ways_; }
  const std::string& name() const noexcept { return name_; }

  /// Lookup + allocate-on-miss. Victim selection prefers an invalid slot,
  /// else the LRU valid line, among the set's active ways.
  AccessOutcome access(block_t blk, bool is_store, cycle_t now) {
    return access(blk, is_store, now, track_lru_);
  }

  /// The same access, computing a hit's lru_pos only when `rank` is set,
  /// whatever set_lru_tracking says.
  AccessOutcome access(block_t blk, bool is_store, cycle_t now, bool rank);

  /// Probe without side effects.
  bool contains(block_t blk) const noexcept;

  /// Invalidate a block if present (used for back-invalidation). Returns
  /// true if the line was present and dirty.
  bool invalidate(block_t blk, cycle_t now);

  /// Invalidate a specific slot (used by Refrint RPD's eager invalidation).
  /// No-op on an already-invalid slot. Returns true if the line was dirty.
  bool invalidate_slot(std::uint32_t set, std::uint32_t way, cycle_t now);

  /// Changes a set's active way count at cycle `now`. When shrinking, lines
  /// in deactivated ways are invalidated and reported through
  /// `on_evict(block, dirty)` (the paper: clean lines are discarded, dirty
  /// lines written back, §5); the listener sees the invalidations stamped
  /// with `now`, the actual reconfiguration cycle.
  void resize_set(std::uint32_t set, std::uint32_t new_active, cycle_t now,
                  const std::function<void(block_t, bool)>& on_evict);

  std::uint32_t active_ways(std::uint32_t set) const noexcept {
    return set_state_[set].active;
  }

  /// Permanently retires a slot (fault-induced capacity degradation): any
  /// resident line is invalidated (listener notified) and the slot is never
  /// allocated again. Returns false if the slot was already disabled.
  bool disable_slot(std::uint32_t set, std::uint32_t way, cycle_t now);

  bool slot_disabled(std::uint32_t set, std::uint32_t way) const noexcept {
    return (slots_[idx(set, way)] & kState) == kRetired;
  }

  /// Number of slots retired by disable_slot().
  std::uint64_t disabled_slots() const noexcept { return disabled_count_; }

  /// Number of currently valid lines (maintained incrementally).
  std::uint64_t valid_lines() const noexcept { return valid_count_; }

  std::uint32_t set_index_of(block_t blk) const noexcept {
    return static_cast<std::uint32_t>(blk & (sets_ - 1));
  }

  /// Host bytes of per-slot and per-set state.
  std::size_t state_bytes() const noexcept {
    return slots_.size() * sizeof(std::uint64_t) +
           set_state_.capacity() * sizeof(SetState);
  }

  const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// At most one listener (the refresh policy); may be null. The listener's
  /// wants_touch() is sampled here: per-touch notification is skipped
  /// entirely for listeners without per-touch state.
  void set_listener(LineListener* listener) noexcept {
    listener_ = listener;
    touch_listener_ = (listener != nullptr && listener->wants_touch()) ? listener : nullptr;
  }

  /// Enables/disables hit LRU-position computation (AccessOutcome::lru_pos).
  /// The position costs an O(ways) tag-and-stamp scan per hit; the memory system
  /// leaves it off and asks for it per access, on ESTEEM's leader sets only.
  /// On by default for API compatibility.
  void set_lru_tracking(bool enabled) noexcept { track_lru_ = enabled; }
  bool lru_tracking() const noexcept { return track_lru_; }

  /// True if the slot currently holds a valid line.
  bool slot_valid(std::uint32_t set, std::uint32_t way) const noexcept {
    return (slots_[idx(set, way)] & kValid) != 0;
  }
  bool slot_dirty(std::uint32_t set, std::uint32_t way) const noexcept {
    return (slots_[idx(set, way)] & kState) == kState;
  }
  /// The slot's block, or kInvalidBlock when it holds no line.
  block_t slot_block(std::uint32_t set, std::uint32_t way) const noexcept {
    const std::uint64_t s = slots_[idx(set, way)];
    return (s & kValid) != 0 ? block_of(s, set) : kInvalidBlock;
  }

 private:
  std::size_t idx(std::uint32_t set, std::uint32_t way) const noexcept {
    return static_cast<std::size_t>(set) * ways_ + way;
  }

  // One slot is one 64-bit word: bits 0-45 hold the tag, bits 46-47 the
  // slot's state and bits 48-63 the recency stamp within the set (larger =
  // newer). The state is empty (0, so a fresh array is all zeros), retired
  // by disable_slot() (kDirty alone), a clean line (kValid) or a dirty line
  // (kValid | kDirty).
  static constexpr std::uint64_t kTagMask = (std::uint64_t{1} << kTagBits) - 1;
  static constexpr std::uint64_t kDirty = std::uint64_t{1} << kTagBits;
  static constexpr std::uint64_t kValid = std::uint64_t{1} << (kTagBits + 1);
  static constexpr std::uint64_t kState = kValid | kDirty;
  static constexpr std::uint64_t kRetired = kDirty;
  static constexpr unsigned kStampShift = 48;
  static constexpr std::uint64_t kLineMask = (std::uint64_t{1} << kStampShift) - 1;
  /// The bits a hit compares against `tag | kValid`: the tag and the valid
  /// bit, so a slot without a line never matches.
  static constexpr std::uint64_t kMatchMask = kTagMask | kValid;

  std::uint64_t tag_of(block_t blk) const noexcept {
    assert((blk >> set_bits_) <= kTagMask);
    return blk >> set_bits_;
  }
  block_t block_of(std::uint64_t slot, std::uint32_t set) const noexcept {
    return ((slot & kTagMask) << set_bits_) | set;
  }
  static std::uint16_t stamp_of(std::uint64_t slot) noexcept {
    return static_cast<std::uint16_t>(slot >> kStampShift);
  }
  static void set_stamp(std::uint64_t& slot, std::uint16_t stamp) noexcept {
    slot = (slot & kLineMask) | (std::uint64_t{stamp} << kStampShift);
  }

  /// Way of the line with tag `tag` among a set's first `active` slots, or
  /// kNoWay. A tag occupies at most one way of its set, so the last match is
  /// the only one. Every way is compared, and a conditional move keeps the
  /// match: no branch depends on which way a hit lands in, so none
  /// mispredicts on it. Unrolled by four, the 4-way L1 scan runs its loop
  /// branch once and the 16-way L2 scan four times (DESIGN.md §7).
  static std::uint32_t find_way(const std::uint64_t* slots, std::uint32_t active,
                                std::uint64_t tag) noexcept {
    const std::uint64_t key = tag | kValid;
    std::uint32_t match = 0;  // way + 1 of the match, 0 while none
#pragma GCC unroll 4
    for (std::uint32_t w = 0; w < active; ++w) {
      match = ((slots[w] ^ key) & kMatchMask) == 0 ? w + 1 : match;
    }
    return match - 1;  // no match: 0 - 1 wraps to kNoWay
  }

  /// Per-set state in one 4-byte record, so a hit reads and writes a single
  /// host cache line of it.
  struct SetState {
    std::uint16_t active;  ///< active way count
    std::uint16_t clock;   ///< last recency stamp handed out in this set
  };

  /// The set's next recency stamp. When the 16-bit clock is about to wrap,
  /// the set's valid stamps are first replaced by their ranks 1..n, which
  /// keeps every recency comparison (victims and lru_pos) unchanged.
  std::uint16_t next_stamp(std::uint32_t set) {
    SetState& s = set_state_[set];
    if (s.clock == UINT16_MAX) renormalize(set);
    return ++s.clock;
  }
  void renormalize(std::uint32_t set);

  /// Clears a valid slot and notifies the listener; returns its dirty bit.
  bool drop(std::uint32_t set, std::uint32_t way, cycle_t now);

  std::uint32_t sets_;
  std::uint32_t ways_;
  unsigned set_bits_;  ///< log2(sets_): the set-index bits a tag drops.
  std::string name_;

  PageArray<std::uint64_t> slots_;  // one word per (set, way) slot, set-major
  std::vector<SetState> set_state_;

  std::uint64_t valid_count_ = 0;
  std::uint64_t disabled_count_ = 0;
  CacheStats stats_;
  LineListener* listener_ = nullptr;
  LineListener* touch_listener_ = nullptr;  ///< listener_ iff it wants_touch().
  bool track_lru_ = true;
};

}  // namespace esteem::cache
