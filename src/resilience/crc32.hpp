// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) — the integrity checksum used
// by the journal files (per record line) and the disk memo cache (per file
// payload). A CRC is enough here: the threat model is torn writes, truncated
// files and bit rot, not an adversary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace esteem::resilience {

/// Incremental update: feed `crc32(data, len, prev)` the previous return
/// value to checksum a stream in pieces. Seed with 0.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0) noexcept;

inline std::uint32_t crc32(const std::string& bytes, std::uint32_t seed = 0) noexcept {
  return crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace esteem::resilience
