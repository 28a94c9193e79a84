// Zero-filled fixed-size arrays whose large instances live outside the
// malloc heap.
//
// A cache's slot array is the simulator's largest allocation (512 KB for
// the 4 MB L2). From the heap, a freed one stays resident as free heap,
// small long-lived allocations (run outcomes) split it, and the next run's
// arrays no longer fit the holes, so the heap grows past what is ever live
// at once. A large array here is a page mapping instead. A released mapping
// is kept for the next array of its size: mapping fresh pages costs a page
// fault per 4 KB the run touches, far more than zeroing warm ones.
#pragma once

#include <cstddef>
#include <cstring>
#include <type_traits>
#include <utility>

namespace esteem {

namespace page_memory {
/// Zero-filled storage of `bytes` (nullptr for 0); throws std::bad_alloc.
void* allocate_zeroed(std::size_t bytes);
/// Releases storage from allocate_zeroed(bytes).
void release(void* p, std::size_t bytes) noexcept;
}  // namespace page_memory

template <class T>
class PageArray {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>);

 public:
  explicit PageArray(std::size_t n = 0)
      : data_(static_cast<T*>(page_memory::allocate_zeroed(n * sizeof(T)))), size_(n) {}
  PageArray(const PageArray& other) : PageArray(other.size_) {
    if (size_ != 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
  }
  PageArray(PageArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  PageArray& operator=(PageArray other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~PageArray() { page_memory::release(data_, size_ * sizeof(T)); }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

 private:
  T* data_;
  std::size_t size_;
};

}  // namespace esteem
