#include "mpss/util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace mpss::json {
namespace {

/// 2^53: the largest integer up to which every integer is an exact double.
/// Integers above it are held as std::uint64_t when they fit (json.hpp).
constexpr std::uint64_t kMaxExactDouble = std::uint64_t{1} << 53;

[[noreturn]] void fail(const char* what, std::size_t offset) {
  throw std::invalid_argument("json: " + std::string(what) + " at offset " +
                              std::to_string(offset));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content", pos_);
    return value;
  }

 private:
  void skip_whitespace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character", pos_);
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep", pos_);
    skip_whitespace();
    char c = peek();
    switch (c) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Value(parse_string());
      case 't':
        if (!consume_literal("true")) fail("invalid literal", pos_);
        return Value(true);
      case 'f':
        if (!consume_literal("false")) fail("invalid literal", pos_);
        return Value(false);
      case 'n':
        if (!consume_literal("null")) fail("invalid literal", pos_);
        return Value(nullptr);
      default: return parse_number();
    }
  }

  Value parse_object(std::size_t depth) {
    expect('{');
    Object members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(members));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members.emplace_back(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      char c = peek();
      ++pos_;
      if (c == '}') return Value(std::move(members));
      if (c != ',') fail("expected ',' or '}'", pos_ - 1);
    }
  }

  Value parse_array(std::size_t depth) {
    expect('[');
    Array elements;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(elements));
    }
    for (;;) {
      elements.push_back(parse_value(depth + 1));
      skip_whitespace();
      char c = peek();
      ++pos_;
      if (c == ']') return Value(std::move(elements));
      if (c != ',') fail("expected ',' or ']'", pos_ - 1);
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("bad \\u escape", pos_);
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad \\u escape", pos_ - 1);
    }
    return code;
  }

  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (code >> 18)));
      out.push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character", pos_ - 1);
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xD800 && code <= 0xDBFF) {
            // High surrogate: a low surrogate must follow for a full code point.
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              unsigned low = parse_hex4();
              if (low < 0xDC00 || low > 0xDFFF) fail("bad surrogate pair", pos_);
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              fail("lone surrogate", pos_);
            }
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            fail("lone surrogate", pos_);
          }
          append_utf8(out, code);
          break;
        }
        default: fail("bad escape", pos_ - 1);
      }
    }
  }

  Value parse_number() {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool digits = false;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
      digits = true;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (!digits) fail("invalid number", start);
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("invalid number", start);
    // A plain digit run past 2^53 stays exact when it fits in 64 bits. 2^53
    // has 16 digits, and 2^53 + 1 rounds down to 2^53, hence the cheap filter.
    if (token.size() >= 16 && value >= static_cast<double>(kMaxExactDouble)) {
      std::uint64_t exact = 0;
      auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), exact);
      if (ec == std::errc{} && ptr == token.data() + token.size() &&
          exact > kMaxExactDouble) {
        return Value(exact);
      }
    }
    return Value(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void append_escaped(std::string_view text, std::string& out) {
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(double value, std::string& out) {
  if (!std::isfinite(value)) {
    // JSON has no NaN/Inf; null is the conventional stand-in and the decoders
    // here reject it with "expected number", which is the right failure.
    out += "null";
    return;
  }
  // Range first: casting a double past long long's range is undefined.
  if (std::fabs(value) < 1e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    out += std::to_string(static_cast<long long>(value));
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += buffer;
}

}  // namespace

Value::Value(std::size_t value) {
  if (value > kMaxExactDouble) data_ = std::uint64_t{value};
  else data_ = static_cast<double>(value);
}

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  throw std::invalid_argument("json: expected bool");
}

double Value::as_double() const {
  if (const double* d = std::get_if<double>(&data_)) return *d;
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&data_)) {
    return static_cast<double>(*u);  // nearest, as strtod rounds the literal
  }
  throw std::invalid_argument("json: expected number");
}

std::uint64_t Value::as_u64() const {
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&data_)) return *u;
  const double* d = std::get_if<double>(&data_);
  if (d != nullptr && *d >= 0.0 && *d <= static_cast<double>(kMaxExactDouble) &&
      *d == std::floor(*d)) {
    return static_cast<std::uint64_t>(*d);
  }
  throw std::invalid_argument("json: expected a non-negative integer");
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  throw std::invalid_argument("json: expected string");
}

const Array& Value::as_array() const {
  if (const Array* a = std::get_if<Array>(&data_)) return *a;
  throw std::invalid_argument("json: expected array");
}

const Object& Value::as_object() const {
  if (const Object* o = std::get_if<Object>(&data_)) return *o;
  throw std::invalid_argument("json: expected object");
}

const Value* Value::find(std::string_view key) const {
  const Object* members = std::get_if<Object>(&data_);
  if (members == nullptr) return nullptr;
  for (const auto& [name, value] : *members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  if (const Value* value = find(key)) return *value;
  throw std::invalid_argument("json: missing field '" + std::string(key) + "'");
}

void Value::set(std::string key, Value value) {
  Object* members = std::get_if<Object>(&data_);
  if (members == nullptr) {
    data_ = Object{};
    members = std::get_if<Object>(&data_);
  }
  members->emplace_back(std::move(key), std::move(value));
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

void serialize_to(const Value& value, std::string& out) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (const std::uint64_t* exact = std::get_if<std::uint64_t>(&value.data_)) {
    out += std::to_string(*exact);
  } else if (value.is_number()) {
    append_number(value.as_double(), out);
  } else if (value.is_string()) {
    append_escaped(value.as_string(), out);
  } else if (value.is_array()) {
    out.push_back('[');
    bool first = true;
    for (const Value& element : value.as_array()) {
      if (!first) out.push_back(',');
      first = false;
      serialize_to(element, out);
    }
    out.push_back(']');
  } else {
    out.push_back('{');
    bool first = true;
    for (const auto& [key, member] : value.as_object()) {
      if (!first) out.push_back(',');
      first = false;
      append_escaped(key, out);
      out.push_back(':');
      serialize_to(member, out);
    }
    out.push_back('}');
  }
}

std::string serialize(const Value& value) {
  std::string out;
  serialize_to(value, out);
  return out;
}

}  // namespace mpss::json
