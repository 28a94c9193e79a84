#include "chaos/file_ops.hpp"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>

#include <unistd.h>

namespace esteem::chaos {

namespace detail {

namespace {

[[noreturn]] void die(const std::string& point) {
  std::fprintf(stderr, "[chaos] crash at %s\n", point.c_str());
  std::fflush(nullptr);
  ::raise(SIGKILL);
  std::abort();  // Unreachable unless SIGKILL is somehow ignored.
}

}  // namespace

void chaos_crashpoint(const std::string& point) {
  const Injection inj = consult(point);
  if (inj.action == Injection::Action::kCrash) die(point);
}

ssize_t chaos_write(const std::string& point, int fd, const void* buf,
                    std::size_t count) {
  const Injection inj = consult(point);
  switch (inj.action) {
    case Injection::Action::kCrash:
      die(point);
    case Injection::Action::kShortWrite: {
      // Physically land the first `bytes` bytes, then fail: the on-disk
      // state is the torn prefix a crash mid-write leaves behind.
      std::size_t torn = inj.bytes < count ? inj.bytes : count;
      std::size_t off = 0;
      while (off < torn) {
        const ssize_t n = ::write(fd, static_cast<const char*>(buf) + off,
                                  torn - off);
        if (n < 0) {
          if (errno == EINTR) continue;
          break;
        }
        off += static_cast<std::size_t>(n);
      }
      errno = inj.err != 0 ? inj.err : EIO;
      return -1;
    }
    case Injection::Action::kErrno:
    case Injection::Action::kRenameDuplicate:
      errno = inj.err != 0 ? inj.err : EIO;
      return -1;
    case Injection::Action::kNone:
      break;
  }
  return ::write(fd, buf, count);
}

int chaos_fsync(const std::string& point, int fd) {
  const Injection inj = consult(point);
  switch (inj.action) {
    case Injection::Action::kCrash:
      die(point);
    case Injection::Action::kErrno:
    case Injection::Action::kShortWrite:
    case Injection::Action::kRenameDuplicate:
      errno = inj.err != 0 ? inj.err : EIO;
      return -1;
    case Injection::Action::kNone:
      break;
  }
  return ::fsync(fd);
}

void chaos_rename(const std::string& point, const std::filesystem::path& from,
                  const std::filesystem::path& to, std::error_code& ec) {
  const Injection inj = consult(point);
  switch (inj.action) {
    case Injection::Action::kCrash:
      die(point);
    case Injection::Action::kRenameDuplicate:
      // The rename happens, then its success report is lost.
      std::filesystem::rename(from, to, ec);
      if (!ec) ec = std::error_code(inj.err != 0 ? inj.err : EIO,
                                    std::generic_category());
      return;
    case Injection::Action::kErrno:
    case Injection::Action::kShortWrite:
      ec = std::error_code(inj.err != 0 ? inj.err : EIO,
                           std::generic_category());
      return;
    case Injection::Action::kNone:
      break;
  }
  std::filesystem::rename(from, to, ec);
}

}  // namespace detail

}  // namespace esteem::chaos
