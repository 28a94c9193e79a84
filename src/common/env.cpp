#include "common/env.hpp"

#include <cstdlib>

namespace esteem {

std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string{v} : fallback;
}

}  // namespace esteem
