#include "common/env.hpp"

#include <cstdlib>
#include <stdexcept>

#include "common/json.hpp"

namespace esteem {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::uint64_t parsed = 0;
  if (!json::parse_u64(v, parsed)) {
    throw std::invalid_argument(std::string(name) + "='" + v +
                                "' is not a non-negative integer");
  }
  return parsed;
}

std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string{v} : fallback;
}

}  // namespace esteem
