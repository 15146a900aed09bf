#include "mpss/util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
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

[[noreturn]] void expected(const char* what) {
  throw std::invalid_argument(std::string("json: expected ") + what);
}

/// as_u64 of a double: an integral value in [0, 2^53], or it throws.
std::uint64_t u64_of(double value) {
  if (value >= 0.0 && value <= static_cast<double>(kMaxExactDouble) &&
      value == std::floor(value)) {
    return static_cast<std::uint64_t>(value);
  }
  throw std::invalid_argument("json: expected a non-negative integer");
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

void append_u64(std::uint64_t value, std::string& out) {
  char buffer[24];
  char* end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
  out.append(buffer, end);
}

void append_number(double value, std::string& out) {
  if (!std::isfinite(value)) {
    // JSON has no NaN/Inf; null is the conventional stand-in and the decoders
    // here reject it with "expected number", which is the right failure.
    out += "null";
    return;
  }
  char buffer[32];
  char* end = nullptr;
  // Integral values below 1e17 are written as their digits, as they always
  // were (range first: casting a double past long long's range is
  // undefined); -0 keeps its sign. Everything else takes the shortest form
  // that reads back to the same double: 0.1, not 0.10000000000000001.
  if (std::fabs(value) < 1e17 && value == std::trunc(value) &&
      !(value == 0.0 && std::signbit(value))) {
    end = std::to_chars(buffer, buffer + sizeof buffer,
                        static_cast<long long>(value)).ptr;
  } else {
    end = std::to_chars(buffer, buffer + sizeof buffer, value).ptr;
  }
  out.append(buffer, end);
}

}  // namespace

/// The one tokenizer: recursive descent over the text, appending nodes to the
/// document's tape in document order.
class Parser {
 public:
  explicit Parser(Document& document)
      : text_(document.text_), nodes_(document.nodes_),
        unescaped_(document.unescaped_) {}

  void parse_document() {
    if (text_.size() >= std::numeric_limits<std::uint32_t>::max()) {
      fail("document too large", 0);
    }
    // A reply or instance runs about four bytes per node.
    nodes_.reserve(text_.size() / 4 + 1);
    parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content", pos_);
  }

 private:
  using Kind = Document::Kind;
  using Node = Document::Node;

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

  /// Appends a node with no children and returns it for its payload.
  Node& push(Kind kind) {
    Node& node = nodes_.emplace_back();
    node.kind = kind;
    node.next = static_cast<std::uint32_t>(nodes_.size());
    return node;
  }

  void literal(std::string_view text, Kind kind) {
    if (text_.substr(pos_, text.size()) != text) fail("invalid literal", pos_);
    pos_ += text.size();
    push(kind);
  }

  void parse_value(std::size_t depth) {
    if (depth > kMaxDepth) fail("nesting too deep", pos_);
    skip_whitespace();
    switch (peek()) {
      case '{': parse_object(depth); return;
      case '[': parse_array(depth); return;
      case '"': parse_string(); return;
      case 't': literal("true", Kind::kTrue); return;
      case 'f': literal("false", Kind::kFalse); return;
      case 'n': literal("null", Kind::kNull); return;
      default: parse_number(); return;
    }
  }

  /// Records a finished container: its child count and where it ends.
  void close(std::size_t index, std::uint32_t count) {
    nodes_[index].count = count;
    nodes_[index].next = static_cast<std::uint32_t>(nodes_.size());
  }

  void parse_object(std::size_t depth) {
    expect('{');
    const std::size_t index = nodes_.size();
    push(Kind::kObject);
    std::uint32_t count = 0;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return close(index, count);
    }
    for (;;) {
      skip_whitespace();
      parse_string();
      skip_whitespace();
      expect(':');
      parse_value(depth + 1);
      ++count;
      skip_whitespace();
      char c = peek();
      ++pos_;
      if (c == '}') return close(index, count);
      if (c != ',') fail("expected ',' or '}'", pos_ - 1);
    }
  }

  void parse_array(std::size_t depth) {
    expect('[');
    const std::size_t index = nodes_.size();
    push(Kind::kArray);
    std::uint32_t count = 0;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return close(index, count);
    }
    for (;;) {
      parse_value(depth + 1);
      ++count;
      skip_whitespace();
      char c = peek();
      ++pos_;
      if (c == ']') return close(index, count);
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

  void string_node(Kind kind, std::size_t offset, std::size_t size) {
    Node& node = push(kind);
    node.text = {static_cast<std::uint32_t>(offset), static_cast<std::uint32_t>(size)};
  }

  void parse_string() {
    expect('"');
    // Fast path: a string without escapes becomes a view into the text.
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        string_node(Kind::kString, start, pos_ - start);
        ++pos_;
        return;
      }
      if (c == '\\') break;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character", pos_);
      ++pos_;
    }
    // Escapes: decode the whole string into the document's buffer.
    const std::size_t offset = unescaped_.size();
    unescaped_.append(text_.substr(start, pos_ - start));
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      char c = text_[pos_++];
      if (c == '"') {
        string_node(Kind::kEscapedString, offset, unescaped_.size() - offset);
        return;
      }
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character", pos_ - 1);
      if (c != '\\') {
        unescaped_.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      char e = text_[pos_++];
      switch (e) {
        case '"': unescaped_.push_back('"'); break;
        case '\\': unescaped_.push_back('\\'); break;
        case '/': unescaped_.push_back('/'); break;
        case 'b': unescaped_.push_back('\b'); break;
        case 'f': unescaped_.push_back('\f'); break;
        case 'n': unescaped_.push_back('\n'); break;
        case 'r': unescaped_.push_back('\r'); break;
        case 't': unescaped_.push_back('\t'); break;
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
          append_utf8(unescaped_, code);
          break;
        }
        default: fail("bad escape", pos_ - 1);
      }
    }
  }

  void parse_number() {
    const std::size_t start = pos_;
    const bool negative = pos_ < text_.size() && text_[pos_] == '-';
    if (negative) ++pos_;
    const std::size_t integer_start = pos_;
    std::uint64_t integer = 0;  // wraps past 19 digits; read only up to 15
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      integer = integer * 10 + static_cast<unsigned>(text_[pos_] - '0');
      ++pos_;
    }
    const std::size_t digits = pos_ - integer_start;
    bool plain = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      plain = false;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      plain = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (digits == 0) fail("invalid number", start);
    if (plain && digits <= 15) {
      // Below 10^15 < 2^53 the digits are their own exact double.
      const auto value = static_cast<double>(integer);
      push(Kind::kNumber).number = negative ? -value : value;
      return;
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0.0;
    auto [end, error] = std::from_chars(first, last, value);
    if (end != last || (error != std::errc{} && error != std::errc::result_out_of_range)) {
      fail("invalid number", start);
    }
    if (error == std::errc::result_out_of_range) {
      // Past the double range: keep strtod's reading (+-inf, or 0 on underflow).
      value = std::strtod(std::string(first, last).c_str(), nullptr);
    }
    // A plain digit run past 2^53 stays exact when it fits in 64 bits. 2^53
    // has 16 digits, and 2^53 + 1 rounds down to 2^53, hence the cheap filter.
    if (last - first >= 16 && value >= static_cast<double>(kMaxExactDouble)) {
      std::uint64_t exact = 0;
      auto [exact_end, exact_error] = std::from_chars(first, last, exact);
      if (exact_error == std::errc{} && exact_end == last && exact > kMaxExactDouble) {
        push(Kind::kExact).exact = exact;
        return;
      }
    }
    push(Kind::kNumber).number = value;
  }

  std::string_view text_;
  std::vector<Node>& nodes_;
  std::string& unescaped_;
  std::size_t pos_ = 0;
};

// ---- Document and Ref --------------------------------------------------------

Document::Document(std::string_view text) : text_(text) {
  Parser(*this).parse_document();
}

bool Ref::as_bool() const {
  const Document::Kind kind = document_->node(index_).kind;
  if (kind == Document::Kind::kTrue) return true;
  if (kind == Document::Kind::kFalse) return false;
  expected("bool");
}

double Ref::as_double() const {
  const Document::Node& node = document_->node(index_);
  if (node.kind == Document::Kind::kNumber) return node.number;
  if (node.kind == Document::Kind::kExact) {
    return static_cast<double>(node.exact);  // nearest, as strtod rounds the literal
  }
  expected("number");
}

std::uint64_t Ref::as_u64() const {
  const Document::Node& node = document_->node(index_);
  if (node.kind == Document::Kind::kExact) return node.exact;
  if (node.kind == Document::Kind::kNumber) return u64_of(node.number);
  throw std::invalid_argument("json: expected a non-negative integer");
}

std::string_view Ref::as_string() const {
  const Document::Node& node = document_->node(index_);
  if (node.kind == Document::Kind::kString) {
    return document_->text_.substr(node.text.offset, node.text.size);
  }
  if (node.kind == Document::Kind::kEscapedString) {
    return std::string_view(document_->unescaped_).substr(node.text.offset, node.text.size);
  }
  expected("string");
}

ArrayRef Ref::as_array() const {
  if (!is_array()) expected("array");
  return ArrayRef(document_, index_);
}

ObjectRef Ref::as_object() const {
  if (!is_object()) expected("object");
  return ObjectRef(document_, index_);
}

std::optional<Ref> Ref::find(std::string_view key) const {
  if (!is_object()) return std::nullopt;
  for (const auto& [name, value] : ObjectRef(document_, index_)) {
    if (name == key) return value;
  }
  return std::nullopt;
}

Ref Ref::at(std::string_view key) const {
  if (std::optional<Ref> value = find(key)) return *value;
  throw std::invalid_argument("json: missing field '" + std::string(key) + "'");
}

Value Ref::to_value() const {
  const Document::Node& node = document_->node(index_);
  switch (node.kind) {
    case Document::Kind::kNull: return Value(nullptr);
    case Document::Kind::kFalse: return Value(false);
    case Document::Kind::kTrue: return Value(true);
    case Document::Kind::kNumber: return Value(node.number);
    case Document::Kind::kExact: return Value(std::size_t{node.exact});
    case Document::Kind::kString:
    case Document::Kind::kEscapedString: return Value(as_string());
    case Document::Kind::kArray: {
      Array elements;
      elements.reserve(node.count);
      for (Ref element : ArrayRef(document_, index_)) {
        elements.push_back(element.to_value());
      }
      return Value(std::move(elements));
    }
    case Document::Kind::kObject: {
      Object members;
      members.reserve(node.count);
      for (const auto& [key, member] : ObjectRef(document_, index_)) {
        members.emplace_back(std::string(key), member.to_value());
      }
      return Value(std::move(members));
    }
  }
  expected("a JSON value");
}

Value parse(std::string_view text) { return Document(text).root().to_value(); }

// ---- Value -------------------------------------------------------------------

Value::Value(std::size_t value) {
  if (value > kMaxExactDouble) data_ = std::uint64_t{value};
  else data_ = static_cast<double>(value);
}

bool Value::as_bool() const {
  if (const bool* b = std::get_if<bool>(&data_)) return *b;
  expected("bool");
}

double Value::as_double() const {
  if (const double* d = std::get_if<double>(&data_)) return *d;
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&data_)) {
    return static_cast<double>(*u);  // nearest, as strtod rounds the literal
  }
  expected("number");
}

std::uint64_t Value::as_u64() const {
  if (const std::uint64_t* u = std::get_if<std::uint64_t>(&data_)) return *u;
  if (const double* d = std::get_if<double>(&data_)) return u64_of(*d);
  throw std::invalid_argument("json: expected a non-negative integer");
}

const std::string& Value::as_string() const {
  if (const std::string* s = std::get_if<std::string>(&data_)) return *s;
  expected("string");
}

const Array& Value::as_array() const {
  if (const Array* a = std::get_if<Array>(&data_)) return *a;
  expected("array");
}

const Object& Value::as_object() const {
  if (const Object* o = std::get_if<Object>(&data_)) return *o;
  expected("object");
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

// ---- writing -----------------------------------------------------------------

void serialize_to(const Value& value, std::string& out) {
  if (value.is_null()) {
    out += "null";
  } else if (value.is_bool()) {
    out += value.as_bool() ? "true" : "false";
  } else if (const std::uint64_t* exact = std::get_if<std::uint64_t>(&value.data_)) {
    append_u64(*exact, out);
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

Writer& Writer::key(std::string_view name) {
  separate();
  append_escaped(name, out_);
  out_.push_back(':');
  comma_ = false;
  return *this;
}

Writer& Writer::boolean(bool value) {
  raw() += value ? "true" : "false";
  return *this;
}

Writer& Writer::number(double value) {
  append_number(value, raw());
  return *this;
}

Writer& Writer::integer(std::uint64_t value) {
  append_u64(value, raw());
  return *this;
}

Writer& Writer::string(std::string_view text) {
  append_escaped(text, raw());
  return *this;
}

Writer& Writer::value(const Value& value) {
  serialize_to(value, raw());
  return *this;
}

}  // namespace mpss::json
