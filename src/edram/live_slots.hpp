// The set of cache slots holding a line, as a refresh policy sees it through
// its LineListener callbacks, iterable in O(listed) rather than O(slots).
//
// One flag byte per slot (live, listed) plus a list of slot ids. insert()
// appends a slot only if it is not already listed; erase() clears the live
// bit and leaves the id in place. for_each() drops the erased ids while it
// walks, so the list holds every live slot exactly once, plus the slots
// erased since the last walk (DESIGN.md §17). The list never exceeds the
// slot count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace esteem::edram {

class LiveSlots {
 public:
  explicit LiveSlots(std::size_t slots) : flags_(slots, 0) {}

  void insert(std::uint32_t i) {
    if ((flags_[i] & kListed) == 0) ids_.push_back(i);
    flags_[i] = kLive | kListed;
  }

  void erase(std::uint32_t i) noexcept {
    flags_[i] = static_cast<std::uint8_t>(flags_[i] & ~kLive);
  }

  /// Ids held: the live slots plus those erased since the last for_each.
  std::size_t listed() const noexcept { return ids_.size(); }

  /// Calls f(i) once for every live slot, in no particular order. f may
  /// erase slot i (the one it is visiting) but must not insert or erase any
  /// other slot.
  template <class F>
  void for_each(F&& f) {
    std::size_t kept = 0;
    for (std::size_t k = 0; k < ids_.size(); ++k) {
      const std::uint32_t i = ids_[k];
      if ((flags_[i] & kLive) != 0) f(i);
      if ((flags_[i] & kLive) != 0) {
        ids_[kept++] = i;
      } else {
        flags_[i] = 0;
      }
    }
    ids_.resize(kept);
  }

 private:
  static constexpr std::uint8_t kLive = 1;
  static constexpr std::uint8_t kListed = 2;

  std::vector<std::uint8_t> flags_;
  std::vector<std::uint32_t> ids_;
};

}  // namespace esteem::edram
