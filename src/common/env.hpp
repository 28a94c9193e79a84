// Environment-variable knobs used by the bench harness to scale run length.
#pragma once

#include <cstdint>
#include <string>

namespace esteem {

/// Reads an unsigned decimal environment variable; returns `fallback` if
/// unset or empty. Anything but a whole run of digits that fits in 64 bits
/// (`1e6`, `-1`, `4x2`) throws std::invalid_argument naming the variable.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// Reads a string environment variable; returns `fallback` if unset.
std::string env_str(const char* name, const std::string& fallback);

}  // namespace esteem
