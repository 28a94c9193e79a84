// The SystemConfig schema and its serializations: a small INI dialect so
// the CLI tool and batch scripts can describe experiments without
// recompiling, and the config bytes of the memo key. Every field is part
// of what a run computes, so every field is in the memo key.
//
//   [system]
//   ncores = 2
//   freq_ghz = 2.0
//   [l2]
//   size_kb = 8192
//   ways = 16
//   ...
//   [esteem]
//   alpha = 0.97
//   a_min = 3
//
// Unknown sections/keys are rejected (catching typos beats ignoring them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>

#include "common/bytes.hpp"
#include "common/config.hpp"

namespace esteem {

/// Typed reference into a SystemConfig: the one accessor of a config field.
template <class T>
using FieldRef = T& (*)(SystemConfig&);

/// A byte slot whose field left SystemConfig. The memo key still carries
/// `value` so its bytes do not move.
struct RetiredSlot {
  double value;
};

using FieldAccess = std::variant<FieldRef<std::uint32_t>, FieldRef<std::uint64_t>,
                                 FieldRef<double>, FieldRef<bool>, RetiredSlot>;

/// One field of the config schema. The INI loader and saver, the generated
/// reference (docs/CONFIG.md) and the memo key all derive from the table of
/// these, so adding a key is one edit. The C++ type behind `access` fixes
/// the INI type (int|float|bool) and the bytes (u32, u64, f64, bool as u8).
struct ConfigField {
  std::string_view section;  ///< INI section, e.g. "l2".
  std::string_view key;      ///< INI key, e.g. "size_kb"; empty = byte forms only.
  std::string_view doc;      ///< One-line meaning (used in docs/CONFIG.md).
  FieldAccess access;
  /// INI value = stored value / ini_unit (sizes are KB in INI, bytes in memory).
  std::uint64_t ini_unit = 1;
  /// Runs after the INI sets this key (l2.line_bytes also sets L1's).
  void (*ini_also)(SystemConfig&) = nullptr;
  /// INI word for the stored value 0, which then has no numeric spelling
  /// (esteem.interval_cycles: `paper-scaled`, kPaperScaledInterval).
  std::string_view zero_word = {};
};

/// The schema in byte order: the order of the memo key and of
/// --dump-config (sections are contiguous).
std::span<const ConfigField> config_fields();

/// Appends every field of `cfg` in table order (f64-exact, unlike the
/// INI): the config part of the memo key.
void write_config_bytes(ByteWriter& w, const SystemConfig& cfg);

/// Structured INI parse failure: what() always carries the 1-based line
/// number (and the offending section.key when one was identified), and the
/// same facts are available as fields for programmatic handling. Derives
/// from std::invalid_argument so existing catch sites keep working.
class ConfigParseError : public std::invalid_argument {
 public:
  ConfigParseError(std::size_t line, std::string key, const std::string& message)
      : std::invalid_argument(message), line_(line), key_(std::move(key)) {}

  std::size_t line() const noexcept { return line_; }      ///< 1-based; 0 = n/a.
  const std::string& key() const noexcept { return key_; } ///< "section.key" or "".

 private:
  std::size_t line_;
  std::string key_;
};

/// Markdown config-key reference generated from the schema; the "default"
/// column shows each key's value in `defaults`. `esteem_cli
/// --dump-config-doc` prints this for docs/CONFIG.md.
std::string config_doc_markdown(const SystemConfig& defaults);

/// Parses a config from an INI stream/file. Starts from the defaults and
/// applies only the keys present, then validates. Throws
/// std::invalid_argument on syntax errors, unknown keys, or invalid values.
SystemConfig load_config(std::istream& in);
SystemConfig load_config_file(const std::string& path);

/// Writes every field in load_config's format (round-trips exactly).
void save_config(const SystemConfig& cfg, std::ostream& out);

}  // namespace esteem
