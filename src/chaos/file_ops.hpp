// The durable-I/O seam (DESIGN.md §15): thin wrappers around the syscalls
// the run-memo store uses for persistence. Each wrapper names its call
// site (an injection point from fault_plan.hpp's registry); with
// no fault plan installed the wrappers cost one relaxed atomic load and
// fall straight through to the real call — chaos-off behavior is pinned
// byte-identical by test_chaos. With a plan installed, the point consults
// it and may fake an errno, tear a write short, lie about a rename, or die
// on the spot.
#pragma once

#include <filesystem>
#include <string>
#include <system_error>

#include "chaos/fault_plan.hpp"

#include <sys/types.h>
#include <unistd.h>

namespace esteem::chaos {

namespace detail {
ssize_t chaos_write(const std::string& point, int fd, const void* buf,
                    std::size_t count);
int chaos_fsync(const std::string& point, int fd);
void chaos_rename(const std::string& point, const std::filesystem::path& from,
                  const std::filesystem::path& to, std::error_code& ec);
void chaos_crashpoint(const std::string& point);
}  // namespace detail

/// write(2); kShortWrite injections physically write the first N bytes and
/// then fail with the injected errno — exactly the torn record a crash
/// mid-write leaves behind.
inline ssize_t px_write(const std::string& point, int fd, const void* buf,
                        std::size_t count) {
  if (!armed()) return ::write(fd, buf, count);
  return detail::chaos_write(point, fd, buf, count);
}

/// fsync(2); kErrno injections report failure after the data already hit the
/// page cache, the classic "fsync failed but the bytes may still land" case.
inline int px_fsync(const std::string& point, int fd) {
  if (!armed()) return ::fsync(fd);
  return detail::chaos_fsync(point, fd);
}

/// std::filesystem::rename; kRenameDuplicate performs the rename and then
/// reports failure, modeling a retried rename whose first attempt's reply
/// was lost.
inline void px_rename(const std::string& point,
                      const std::filesystem::path& from,
                      const std::filesystem::path& to, std::error_code& ec) {
  if (!armed()) {
    std::filesystem::rename(from, to, ec);
    return;
  }
  detail::chaos_rename(point, from, to, ec);
}

/// Named crashpoint: no-op unless an installed plan says kCrash here, in
/// which case the process raises SIGKILL (no atexit, no flush — the honest
/// power-loss model).
inline void crashpoint(const std::string& point) {
  if (!armed()) return;
  detail::chaos_crashpoint(point);
}

}  // namespace esteem::chaos
