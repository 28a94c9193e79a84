// The one JSON codec behind every JSON file the repo reads or writes
// (DESIGN.md §10): validation/golden.json, interval JSONL and Chrome
// traces.
//
// Writers keep their own fixed layouts and call escape() for strings and
// number() for doubles, so the bytes of a string or a double are decided
// here and nowhere else. Readers call parse(), which returns a value tree:
//
//   - object members keep their file order (interval columns depend on it);
//   - a number keeps its raw token, so a u64 counter above 2^53 survives
//     as_u64() exactly and %.17g doubles round-trip bit for bit;
//   - strings decode every escape escape() writes, \uXXXX included.
//
// Besides standard JSON numbers, a number token may be any other %.17g
// output ("inf", "nan"), because writers print non-finite doubles that way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace esteem::json {

/// Escapes `s` for embedding inside JSON quotes: '"' and '\' get a
/// backslash, \n \t \r their short forms, other control bytes \u00XX.
std::string escape(std::string_view s);

/// `v` as "%.17g", which round-trips every double bit for bit.
std::string number(double v);

/// Strict whole-token parser: the entire token must be the number, with
/// no whitespace, sign, or overflow. false otherwise.
bool parse_u64(std::string_view token, std::uint64_t& out);

/// A parse or type error: the message names the byte offset or the key.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One parsed JSON value. Arrays and objects share `size()` and `item(i)`;
/// objects also carry `key(i)` for each member, in file order (duplicates
/// kept).
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const noexcept { return kind_; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// A string's decoded bytes, or a number's raw token.
  const std::string& text() const noexcept { return text_; }
  bool boolean() const noexcept { return bool_; }
  std::size_t size() const noexcept { return items_.size(); }
  const Value& item(std::size_t i) const { return items_.at(i); }
  const std::string& key(std::size_t i) const { return keys_.at(i); }

  /// First member named `key`; nullptr when absent or not an object.
  const Value* find(std::string_view key) const noexcept;

  // Typed accessors; each throws Error when the value has another kind.
  const Value& at(std::string_view key) const;
  const std::vector<Value>& as_array() const;
  const std::string& as_string() const;
  double as_f64() const;
  std::uint64_t as_u64() const;

 private:
  friend class Parser;
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::string text_;
  std::vector<std::string> keys_;  ///< Objects only; parallel to items_.
  std::vector<Value> items_;
};

/// Parses one whole document (surrounding whitespace allowed, nothing
/// else). Throws Error on malformed input or nesting deeper than 64.
Value parse(std::string_view text);

}  // namespace esteem::json
