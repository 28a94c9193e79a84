#include "common/page_array.hpp"

#include <sys/mman.h>

#include <array>
#include <cstdlib>
#include <mutex>
#include <new>

namespace esteem::page_memory {

namespace {

/// Below this size an array comes from the heap: a mapping costs a system
/// call and at least a page.
constexpr std::size_t kMapBytes = 64 * 1024;

/// Released mappings kept for reuse. Eight covers a four-thread sweep of
/// single-core rows (two L2 arrays per row) and any serial one.
constexpr std::size_t kKept = 8;

struct Mapping {
  void* p;
  std::size_t bytes;
};

struct Pool {
  std::mutex mutex;
  std::array<Mapping, kKept> kept;
  std::size_t n = 0;
};

/// Never destroyed: arrays in static objects may be released at exit.
Pool& pool() {
  static Pool* const p = new Pool();
  return *p;
}

}  // namespace

void* allocate_zeroed(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  if (bytes < kMapBytes) {
    void* p = std::calloc(1, bytes);
    if (p == nullptr) throw std::bad_alloc();
    return p;
  }
  {
    Pool& pool = page_memory::pool();
    const std::lock_guard<std::mutex> lock(pool.mutex);
    for (std::size_t i = 0; i < pool.n; ++i) {
      if (pool.kept[i].bytes != bytes) continue;
      void* p = pool.kept[i].p;
      pool.kept[i] = pool.kept[--pool.n];
      return std::memset(p, 0, bytes);
    }
  }
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void release(void* p, std::size_t bytes) noexcept {
  if (p == nullptr) return;
  if (bytes < kMapBytes) {
    std::free(p);
    return;
  }
  {
    Pool& pool = page_memory::pool();
    const std::lock_guard<std::mutex> lock(pool.mutex);
    if (pool.n < kKept) {
      pool.kept[pool.n++] = {p, bytes};
      return;
    }
  }
  ::munmap(p, bytes);
}

}  // namespace esteem::page_memory
