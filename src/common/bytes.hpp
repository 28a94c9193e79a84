// Canonical little-endian byte codec for binary records: the RunOutcome
// memo file and the memo key it is filed under. One encoding means a
// fingerprint and a payload can never disagree about field layout.
//
// ByteWriter appends fields to a growing buffer; ByteReader is the
// bounds-checked inverse — every getter reports truncation instead of
// reading past the end, which is what lets the loaders treat a torn file as
// a recoverable miss rather than undefined behaviour.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace esteem {

/// Append-only byte writer with a fixed little-endian field encoding.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { u64(v); }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    buf_.append(s);
  }
  std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a serialized payload.
class ByteReader {
 public:
  explicit ByteReader(const std::string& buf) : buf_(buf) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > buf_.size()) return false;
    v = static_cast<std::uint8_t>(buf_[pos_++]);
    return true;
  }
  bool u32(std::uint32_t& v) {
    std::uint64_t wide = 0;
    if (!u64(wide)) return false;
    v = static_cast<std::uint32_t>(wide);
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > buf_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }
  bool str(std::string& s) {
    std::uint64_t n = 0;
    if (!u64(n) || pos_ + n > buf_.size()) return false;
    s.assign(buf_, pos_, n);
    pos_ += n;
    return true;
  }
  bool done() const noexcept { return pos_ == buf_.size(); }
  std::size_t pos() const noexcept { return pos_; }

 private:
  const std::string& buf_;
  std::size_t pos_ = 0;
};

/// FNV-1a offset basis: the starting `h` for fnv1a().
inline constexpr std::uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/// 64-bit FNV-1a over `bytes`, continuing from `h`. Chaining calls over
/// pieces equals one call over their concatenation.
inline std::uint64_t fnv1a(std::uint64_t h, std::string_view bytes) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace esteem
