#pragma once
// JSON for the library, its tools and its tests (substrate for S45).
//
// The one JSON implementation: the Instance codec (core/instance_json.hpp),
// the wire protocol (net/protocol.hpp), the trace JSONL codec (obs/trace.hpp)
// and mpss_trace's Chrome export. Three parts share one grammar and one set of
// number rules:
//
//   * Document: one tokenizer parses a text into a flat, read-only tape -- one
//     node vector per parse, strings as views into the input unless they hold
//     escapes. Decoders read it through Ref, which has Value's accessors and
//     error texts. This is the read side of every codec on the solve path.
//   * Writer: appends compact JSON straight to a string, with no intermediate
//     tree. The reply, request and instance encoders write with it.
//   * Value: a small owning tree (null, bool, number, string, array, object)
//     for documents that are built or kept whole -- verb payloads, stats, the
//     Chrome export. parse() builds one from a Document, and serialize() writes
//     one with the Writer's primitives, so both sides keep one format. Objects
//     preserve insertion order, so output is deterministic -- the property the
//     canonical Instance form, the trace bytes and the protocol golden tests
//     rely on.
//
// Numbers are doubles, except that an integer literal (no sign, fraction or
// exponent) above 2^53 that fits in std::uint64_t, like Value(std::size_t)
// above 2^53, is held exactly: trace ids use the full 64-bit range. Both kinds
// are is_number(); as_double() gives the nearest double (as strtod would),
// as_u64() the exact integer. A literal outside the double range reads as
// strtod reads it (1e400 is inf, 1e-400 is 0). Doubles are written in the
// shortest form that reads back to the same bits (integral values below 1e17
// as plain digits), so parse(serialize(x)) == x bit for bit for every finite
// double, -0 included, and exact integers digit for digit. The wire protocol
// still sends 64-bit ids as decimal strings and bounds its numbers by 2^53.

#include <cstddef>
#include <cstdint>
#include <optional>
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

  /// Member lookup on an object: the first member named `key`, or nullptr
  /// when absent (also when this value is not an object).
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

inline constexpr std::size_t kMaxDepth = 96;

class Document;
class ArrayRef;
class ObjectRef;

/// A read-only view of one node of a Document, with Value's accessors and
/// error texts. Cheap to copy; valid while its Document lives.
class Ref {
 public:
  [[nodiscard]] bool is_number() const;
  [[nodiscard]] bool is_string() const;
  [[nodiscard]] bool is_array() const;
  [[nodiscard]] bool is_object() const;

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  /// A view into the parsed text, or into the document's own buffer when the
  /// string held escapes.
  [[nodiscard]] std::string_view as_string() const;
  [[nodiscard]] ArrayRef as_array() const;
  [[nodiscard]] ObjectRef as_object() const;

  /// The first member named `key`; nullopt when absent or not an object.
  [[nodiscard]] std::optional<Ref> find(std::string_view key) const;
  /// Throws std::invalid_argument("json: missing field 'key'") when absent.
  [[nodiscard]] Ref at(std::string_view key) const;

  /// An owning copy of this subtree.
  [[nodiscard]] Value to_value() const;

 private:
  friend class Document;
  friend class ArrayRef;
  friend class ObjectRef;

  Ref(const Document* document, std::uint32_t index)
      : document_(document), index_(index) {}

  const Document* document_;
  std::uint32_t index_;
};

/// One JSON text parsed into a flat tape of nodes in document order. Each
/// container node records where its subtree ends, so a reader steps over a
/// member without visiting it. Strings without escapes are views into the
/// text, which must outlive the document; escaped strings are decoded once
/// into one buffer the document owns.
///
/// The constructor parses one document (trailing whitespace allowed, anything
/// else after the document throws) and throws std::invalid_argument with an
/// offset-carrying message on malformed input. Depth is capped (kMaxDepth) so
/// adversarial nesting cannot overflow the stack -- this parser fronts a
/// network protocol. Texts of 4 GiB or more are refused.
class Document {
 public:
  explicit Document(std::string_view text);
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  [[nodiscard]] Ref root() const { return Ref(this, 0); }

 private:
  friend class Ref;
  friend class ArrayRef;
  friend class ObjectRef;
  friend class Parser;

  enum class Kind : std::uint8_t {
    kNull, kFalse, kTrue, kNumber, kExact, kString, kEscapedString, kArray, kObject
  };
  struct Span {
    std::uint32_t offset;
    std::uint32_t size;
  };
  struct Node {
    Kind kind;
    std::uint32_t next;  // index one past this node's subtree
    union {
      double number;        // kNumber
      std::uint64_t exact;  // kExact
      Span text;            // kString: in the input; kEscapedString: in unescaped_
      std::uint32_t count;  // kArray: elements; kObject: members
    };
  };

  [[nodiscard]] const Node& node(std::uint32_t index) const { return nodes_[index]; }

  std::string_view text_;
  std::string unescaped_;
  std::vector<Node> nodes_;
};

/// The elements of an array node, in order.
class ArrayRef {
 public:
  class iterator {
   public:
    using value_type = Ref;
    using difference_type = std::ptrdiff_t;
    Ref operator*() const { return Ref(document_, index_); }
    iterator& operator++() {
      index_ = document_->node(index_).next;
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class ArrayRef;
    iterator(const Document* document, std::uint32_t index)
        : document_(document), index_(index) {}
    const Document* document_ = nullptr;
    std::uint32_t index_ = 0;
  };

  [[nodiscard]] std::size_t size() const { return document_->node(index_).count; }
  [[nodiscard]] iterator begin() const { return iterator(document_, index_ + 1); }
  [[nodiscard]] iterator end() const {
    return iterator(document_, document_->node(index_).next);
  }
  /// Element `position` (< size()), reached by stepping over the ones before.
  [[nodiscard]] Ref operator[](std::size_t position) const {
    iterator it = begin();
    for (; position > 0; --position) ++it;
    return *it;
  }

 private:
  friend class Ref;
  ArrayRef(const Document* document, std::uint32_t index)
      : document_(document), index_(index) {}
  const Document* document_;
  std::uint32_t index_;
};

/// The members of an object node as (key, value) pairs, in document order
/// (duplicates included).
class ObjectRef {
 public:
  class iterator {
   public:
    using value_type = std::pair<std::string_view, Ref>;
    using difference_type = std::ptrdiff_t;
    value_type operator*() const {
      return {Ref(document_, index_).as_string(), Ref(document_, index_ + 1)};
    }
    iterator& operator++() {
      index_ = document_->node(index_ + 1).next;  // keys are single nodes
      return *this;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.index_ == b.index_;
    }

   private:
    friend class ObjectRef;
    iterator(const Document* document, std::uint32_t index)
        : document_(document), index_(index) {}
    const Document* document_ = nullptr;
    std::uint32_t index_ = 0;
  };

  [[nodiscard]] std::size_t size() const { return document_->node(index_).count; }
  [[nodiscard]] iterator begin() const { return iterator(document_, index_ + 1); }
  [[nodiscard]] iterator end() const {
    return iterator(document_, document_->node(index_).next);
  }

 private:
  friend class Ref;
  ObjectRef(const Document* document, std::uint32_t index)
      : document_(document), index_(index) {}
  const Document* document_;
  std::uint32_t index_;
};

inline bool Ref::is_number() const {
  Document::Kind kind = document_->node(index_).kind;
  return kind == Document::Kind::kNumber || kind == Document::Kind::kExact;
}
inline bool Ref::is_string() const {
  Document::Kind kind = document_->node(index_).kind;
  return kind == Document::Kind::kString || kind == Document::Kind::kEscapedString;
}
inline bool Ref::is_array() const {
  return document_->node(index_).kind == Document::Kind::kArray;
}
inline bool Ref::is_object() const {
  return document_->node(index_).kind == Document::Kind::kObject;
}

/// Parses one document into an owning Value tree (Document's grammar, depth
/// cap and errors).
[[nodiscard]] Value parse(std::string_view text);

/// Appends compact JSON to a string with no intermediate tree. Commas are
/// placed automatically; the caller nests begin/end calls and writes a key
/// before each object member. Output is byte for byte what serialize() gives
/// for the equivalent Value.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(out) {}

  Writer& begin_object() { return open('{'); }
  Writer& end_object() { return close('}'); }
  Writer& begin_array() { return open('['); }
  Writer& end_array() { return close(']'); }
  Writer& key(std::string_view name);

  Writer& boolean(bool value);
  /// A double, as Value(double) serializes (null when not finite).
  Writer& number(double value);
  /// An unsigned integer as its exact decimal digits (as Value(std::size_t)).
  Writer& integer(std::uint64_t value);
  Writer& string(std::string_view text);
  Writer& value(const Value& value);

  /// Starts a value whose text the caller appends to the returned string
  /// itself; it must be exactly one complete JSON value.
  std::string& raw() {
    separate();
    comma_ = true;
    return out_;
  }

 private:
  void separate() {
    if (comma_) out_.push_back(',');
  }
  Writer& open(char bracket) {
    separate();
    out_.push_back(bracket);
    comma_ = false;
    return *this;
  }
  Writer& close(char bracket) {
    out_.push_back(bracket);
    comma_ = true;
    return *this;
  }

  std::string& out_;
  bool comma_ = false;
};

/// Compact canonical serialization: no whitespace, members in insertion order,
/// doubles in shortest round-trip form (integral values below 1e17 as plain
/// digits), exact integers as their decimal digits, strings escaped per RFC
/// 8259 (control characters as \uXXXX).
[[nodiscard]] std::string serialize(const Value& value);
void serialize_to(const Value& value, std::string& out);

}  // namespace mpss::json
