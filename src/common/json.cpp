#include "common/json.hpp"

#include <cstdio>
#include <cstdlib>

namespace esteem::json {

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse_u64(std::string_view token, std::uint64_t& out) {
  if (token.empty() || token.size() > 20) return false;
  std::uint64_t v = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  out = v;
  return true;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// JSON's number grammar, plus the non-finite forms printf writes.
bool is_number_token(std::string_view t) {
  if (t == "inf" || t == "-inf" || t == "nan" || t == "-nan") return true;
  std::size_t i = 0;
  auto digits = [&]() {
    const std::size_t start = i;
    while (i < t.size() && is_digit(t[i])) ++i;
    return i > start;
  };
  if (i < t.size() && t[i] == '-') ++i;
  if (i < t.size() && t[i] == '0') {
    ++i;
  } else if (!digits()) {
    return false;
  }
  if (i < t.size() && t[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
    ++i;
    if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == t.size();
}

bool parse_f64(std::string_view token, double& out) {
  if (!is_number_token(token)) return false;
  const std::string copy(token);  // strtod needs a terminator.
  out = std::strtod(copy.c_str(), nullptr);
  return true;
}

}  // namespace

const Value* Value::find(std::string_view key) const noexcept {
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return &items_[i];
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (!is_object()) throw Error("json: expected an object holding '" + std::string(key) + "'");
  const Value* v = find(key);
  if (v == nullptr) throw Error("json: missing key '" + std::string(key) + "'");
  return *v;
}

const std::vector<Value>& Value::as_array() const {
  if (!is_array()) throw Error("json: expected an array");
  return items_;
}

const std::string& Value::as_string() const {
  if (!is_string()) throw Error("json: expected a string");
  return text_;
}

double Value::as_f64() const {
  double v = 0.0;
  if (!is_number() || !parse_f64(text_, v)) throw Error("json: expected a number");
  return v;
}

std::uint64_t Value::as_u64() const {
  std::uint64_t v = 0;
  if (!is_number() || !parse_u64(text_, v)) {
    throw Error("json: expected an unsigned integer, got '" + text_ + "'");
  }
  return v;
}

/// Recursive-descent reader over one document.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    Value v = value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing bytes after the document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& why) const {
    throw Error("json: " + why + " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  Value value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    const char c = peek();
    Value v;
    if (c == '{') {
      v.kind_ = Value::Kind::kObject;
      ++pos_;
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      do {
        if (peek() != '"') fail("expected a member name");
        v.keys_.push_back(string());
        expect(':');
        v.items_.push_back(value(depth + 1));
      } while (more('}'));
    } else if (c == '[') {
      v.kind_ = Value::Kind::kArray;
      ++pos_;
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      do {
        v.items_.push_back(value(depth + 1));
      } while (more(']'));
    } else if (c == '"') {
      v.kind_ = Value::Kind::kString;
      v.text_ = string();
    } else {
      scalar(v);
    }
    return v;
  }

  /// After an element: true on ',', false on `close`, fails otherwise.
  bool more(char close) {
    const char c = peek();
    if (c != ',' && c != close) fail(std::string("expected ',' or '") + close + "'");
    ++pos_;
    return c == ',';
  }

  void scalar(Value& v) {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ',' || c == ']' || c == '}' || c == ':' || c == '"' || c == '[' ||
          c == '{' || c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        break;
      }
      ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (token == "true" || token == "false") {
      v.kind_ = Value::Kind::kBool;
      v.bool_ = token == "true";
    } else if (token == "null") {
      v.kind_ = Value::Kind::kNull;
    } else if (is_number_token(token)) {
      v.kind_ = Value::Kind::kNumber;
      v.text_ = std::string(token);
    } else {
      pos_ = start;
      fail("expected a value");
    }
  }

  unsigned hex4() {
    if (text_.size() - pos_ < 4) fail("truncated \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return v;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string string() {
    ++pos_;  // Opening quote, already peeked.
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control byte in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      switch (text_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned cp = hex4();
          if (cp >= 0xDC00 && cp <= 0xDFFF) fail("lone low surrogate");
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            if (text_.substr(pos_, 2) != "\\u") fail("unpaired high surrogate");
            pos_ += 2;
            const unsigned lo = hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("unpaired high surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          }
          append_utf8(out, cp);
          break;
        }
        default:
          --pos_;
          fail("bad escape");
      }
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value parse(std::string_view text) { return Parser(text).document(); }

}  // namespace esteem::json
