#pragma once
// Minimal JSON document model + parser + serializer (substrate for S45).
//
// The one JSON implementation of the library, its tools and its tests: the
// Instance codec (core/instance_json.hpp), the wire protocol (net/protocol.hpp),
// the trace JSONL codec (obs/trace.hpp) and mpss_trace's Chrome export. The
// model is deliberately small: a Value is null, bool, number, string, array,
// or object. Objects preserve insertion order, so serializing a freshly built
// document is deterministic -- the property the canonical Instance form, the
// trace bytes and the protocol golden tests rely on.
//
// Numbers are doubles, except that an integer literal (no sign, fraction or
// exponent) above 2^53 that fits in std::uint64_t, like Value(std::size_t)
// above 2^53, is held exactly: trace ids use the full 64-bit range. Both kinds
// are is_number(); as_double() gives the nearest double (as strtod would),
// as_u64() the exact integer. Doubles are serialized with max_digits10
// precision, so parse(serialize(x)) == x bit for bit for every finite double,
// and exact integers digit for digit. The wire protocol still sends 64-bit ids
// as decimal strings and bounds its numbers by 2^53.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace mpss::json {

class Value;

using Array = std::vector<Value>;
/// Insertion-ordered members; lookup is linear (documents here are small).
using Object = std::vector<std::pair<std::string, Value>>;

class Value {
 public:
  Value() : data_(nullptr) {}
  Value(std::nullptr_t) : data_(nullptr) {}        // NOLINT: intentional
  Value(bool value) : data_(value) {}              // NOLINT: intentional
  Value(double value) : data_(value) {}            // NOLINT: intentional
  Value(int value)                                 // NOLINT: intentional
      : data_(static_cast<double>(value)) {}
  Value(std::size_t value);                        // NOLINT: exact past 2^53
  Value(const char* value) : data_(std::string(value)) {}  // NOLINT: intentional
  Value(std::string value) : data_(std::move(value)) {}    // NOLINT: intentional
  Value(std::string_view value) : data_(std::string(value)) {}  // NOLINT
  Value(Array value) : data_(std::move(value)) {}  // NOLINT: intentional
  Value(Object value) : data_(std::move(value)) {} // NOLINT: intentional

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(data_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(data_); }
  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(data_) ||
           std::holds_alternative<std::uint64_t>(data_);
  }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(data_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(data_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(data_); }

  /// Checked accessors: throw std::invalid_argument naming the expected type
  /// when the value holds something else (the codec's error style).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  /// A non-negative integer, exactly: an exact integer, or an integral double
  /// of at most 2^53 (1e3 and 2.0 read as 1000 and 2); anything else throws.
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  /// Member lookup on an object: the value, or nullptr when absent (also when
  /// this value is not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;

  /// Member lookup that throws std::invalid_argument("missing field 'key'")
  /// when absent -- the decoder's required-field form.
  [[nodiscard]] const Value& at(std::string_view key) const;

  /// Appends a member (builders only; no duplicate-key check).
  void set(std::string key, Value value);

  friend bool operator==(const Value&, const Value&) = default;
  friend void serialize_to(const Value& value, std::string& out);

 private:
  std::variant<std::nullptr_t, bool, double, std::uint64_t, std::string, Array,
               Object>
      data_;
};

/// Parses one JSON document (trailing whitespace allowed, anything else after
/// the document throws). Throws std::invalid_argument with an offset-carrying
/// message on malformed input. Depth is capped (kMaxDepth) so adversarial
/// nesting cannot overflow the stack -- this parser fronts a network protocol.
[[nodiscard]] Value parse(std::string_view text);

inline constexpr std::size_t kMaxDepth = 96;

/// Compact canonical serialization: no whitespace, members in insertion order,
/// doubles at max_digits10 (integers without exponent), exact integers as
/// their decimal digits, strings escaped per RFC 8259 (control characters as
/// \uXXXX).
[[nodiscard]] std::string serialize(const Value& value);
void serialize_to(const Value& value, std::string& out);

}  // namespace mpss::json
