// Environment-variable knobs (ESTEEM_MEMO_DIR).
#pragma once

#include <string>

namespace esteem {

/// Reads a string environment variable; returns `fallback` if unset or empty.
std::string env_str(const char* name, const std::string& fallback);

}  // namespace esteem
