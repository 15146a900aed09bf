#pragma once
// Arbitrary-precision signed integer with a small-value fast path.
//
// Substrate S1 (see DESIGN.md): the offline optimal algorithm branches on exact
// equalities between flow values and work/speed quotients, so every quantity in the
// scheduling core is an exact rational over BigInt. On realistic instances almost
// every intermediate value fits in a machine word, so the class keeps two
// representations behind one API:
//
//   * small: the value lives in an in-object int64 -- no heap allocation, and
//     arithmetic is a single overflow-checked machine operation
//     (__builtin_add_overflow family) plus a binary GCD for Rational
//     normalization;
//   * big: the original sign-magnitude vector of 32-bit limbs, entered only when
//     a small-path operation overflows or an operand is already big.
//
// The representation is canonical: outside the test-only force-big hooks, a
// BigInt is big if and only if its value does not fit in int64 (results of limb
// arithmetic demote on the way out). Equality, ordering, and hashing are value
// based either way, so the hooks can pin a value in the limb representation
// without changing observable behaviour. Promotion/demotion traffic is counted
// in mpss::numeric_counters() (util/numeric_counters.hpp).

#include <cstdint>
#include <compare>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mpss {

/// Arbitrary-precision signed integer.
///
/// Representation: a tagged union of an inline `int64` (small values, the common
/// case) and a little-endian vector of 32-bit limbs with no trailing zero limbs
/// plus a sign flag (big values). Zero is canonically small.
class BigInt {
 public:
  /// Zero.
  BigInt() noexcept : small_(0) {}

  /// From built-in integer. Always small (unless the test force-big mode is on).
  BigInt(std::int64_t value) : small_(value) {  // NOLINT: intentional
    if (test_force_big_) [[unlikely]] promote();
  }
  BigInt(int value) : BigInt(static_cast<std::int64_t>(value)) {}

  // Copies, moves and destruction are inline for the small representation
  // (a Slice copy runs six of them); only the limb branch leaves the header.
  BigInt(const BigInt& other) {
    if (other.big_) [[unlikely]] {
      copy_limbs_from(other);
    } else {
      small_ = other.small_;
    }
  }
  BigInt(BigInt&& other) noexcept {
    if (other.big_) [[unlikely]] {
      move_limbs_from(other);
    } else {
      small_ = other.small_;
    }
  }
  BigInt& operator=(const BigInt& other) {
    if (big_ || other.big_) [[unlikely]] return assign_limbs(other);
    small_ = other.small_;
    return *this;
  }
  BigInt& operator=(BigInt&& other) noexcept {
    if (big_ || other.big_) [[unlikely]] return move_assign_limbs(other);
    small_ = other.small_;
    return *this;
  }
  ~BigInt() {
    if (big_) [[unlikely]] limbs_.~LimbVec();
  }

  /// Parses an optionally signed decimal string. Throws std::invalid_argument on
  /// malformed input (empty, non-digits, lone sign).
  static BigInt from_string(std::string_view text);

  [[nodiscard]] bool is_zero() const { return small_repr() ? small_ == 0 : limbs_.empty(); }
  [[nodiscard]] bool is_negative() const { return small_repr() ? small_ < 0 : negative_; }
  [[nodiscard]] bool is_one() const {
    return small_repr() ? small_ == 1
                        : (!negative_ && limbs_.size() == 1 && limbs_[0] == 1);
  }

  /// -1, 0, +1.
  [[nodiscard]] int sign() const {
    if (small_repr()) return (small_ > 0) - (small_ < 0);
    if (limbs_.empty()) return 0;
    return negative_ ? -1 : 1;
  }

  [[nodiscard]] BigInt abs() const;
  [[nodiscard]] BigInt negated() const;

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);
  /// Truncated division (C++ semantics: quotient rounds toward zero).
  /// Throws std::domain_error on division by zero.
  BigInt& operator/=(const BigInt& rhs);
  BigInt& operator%=(const BigInt& rhs);

  friend BigInt operator+(BigInt lhs, const BigInt& rhs) { return lhs += rhs; }
  friend BigInt operator-(BigInt lhs, const BigInt& rhs) { return lhs -= rhs; }
  friend BigInt operator*(BigInt lhs, const BigInt& rhs) { return lhs *= rhs; }
  friend BigInt operator/(BigInt lhs, const BigInt& rhs) { return lhs /= rhs; }
  friend BigInt operator%(BigInt lhs, const BigInt& rhs) { return lhs %= rhs; }
  BigInt operator-() const { return negated(); }

  /// Quotient and remainder in one pass; remainder has the dividend's sign.
  [[nodiscard]] static std::pair<BigInt, BigInt> divmod(const BigInt& num,
                                                        const BigInt& den);

  friend bool operator==(const BigInt& lhs, const BigInt& rhs);
  friend std::strong_ordering operator<=>(const BigInt& lhs, const BigInt& rhs);

  /// Greatest common divisor (always non-negative; gcd(0,0) == 0).
  [[nodiscard]] static BigInt gcd(BigInt a, BigInt b);

  /// Binary GCD on raw 64-bit magnitudes: the allocation-free kernel behind
  /// gcd() and Rational normalization on the small path.
  [[nodiscard]] static std::uint64_t gcd_u64(std::uint64_t a,
                                             std::uint64_t b) noexcept;

  /// Decimal representation (with leading '-' when negative).
  [[nodiscard]] std::string to_string() const;
  /// Appends to_string() to `out`; the small representation is formatted in
  /// place with std::to_chars, without a temporary string.
  void append_to(std::string& out) const;

  /// Nearest double (may overflow to +/-inf for huge values).
  [[nodiscard]] double to_double() const;

  /// Exact conversion; throws std::overflow_error if the value does not fit.
  [[nodiscard]] std::int64_t to_int64() const;

  /// True iff the value fits in int64.
  [[nodiscard]] bool fits_int64() const;

  /// Number of bits in the magnitude (0 for zero).
  [[nodiscard]] std::size_t bit_length() const;

  /// FNV-style hash over the canonical limb decomposition (representation
  /// independent: a forced-big value hashes like its small twin).
  [[nodiscard]] std::size_t hash() const;

  /// True when the value currently lives in the inline-int64 representation.
  [[nodiscard]] bool is_small() const { return small_repr(); }

  /// The inline value. Precondition: is_small().
  [[nodiscard]] std::int64_t small_value() const { return small_; }

  /// Test-only hook: pins this value in the limb representation (a
  /// representation change only -- comparisons, hashing, and arithmetic stay
  /// value-correct). The differential tests use it to force the limb path on
  /// operands that would otherwise ride the int64 path.
  void force_big();

  /// Test-only global mode: while on, constructors produce the limb
  /// representation and results never demote, so whole computations replay the
  /// pre-fast-path behaviour. Not thread-safe; flip only around single-threaded
  /// test sections.
  static void set_test_force_big(bool on) { test_force_big_ = on; }
  [[nodiscard]] static bool test_force_big() { return test_force_big_; }

 private:
  using Limb = std::uint32_t;
  using DoubleLimb = std::uint64_t;
  using LimbVec = std::vector<Limb>;
  static constexpr int kLimbBits = 32;

  [[nodiscard]] bool small_repr() const { return !big_; }

  // Representation management (bigint.cpp).
  void copy_limbs_from(const BigInt& other);      // construct as a big copy
  void move_limbs_from(BigInt& other) noexcept;   // construct from a big value
  BigInt& assign_limbs(const BigInt& other);       // either side big
  BigInt& move_assign_limbs(BigInt& other) noexcept;
  void promote();            // small -> big, value preserved
  void demote_if_fits();     // big -> small when the magnitude fits int64
  void adopt_limbs(LimbVec limbs, bool negative);  // become big with these limbs
  static BigInt from_u64(std::uint64_t magnitude, bool negative);

  static int compare_values(const BigInt& lhs, const BigInt& rhs);

  static int compare_magnitude(const LimbVec& a, const LimbVec& b);
  static LimbVec add_magnitude(const LimbVec& a, const LimbVec& b);
  // Requires |a| >= |b|.
  static LimbVec sub_magnitude(const LimbVec& a, const LimbVec& b);
  static LimbVec mul_magnitude(const LimbVec& a, const LimbVec& b);
  // Schoolbook long division on magnitudes; returns {quotient, remainder}.
  static std::pair<LimbVec, LimbVec> divmod_magnitude(const LimbVec& num,
                                                      const LimbVec& den);

  static bool test_force_big_;

  // Tagged union: `small_` is the value when !big_; `limbs_` plus `negative_`
  // (sign-magnitude, no trailing zero limbs) when big_.
  bool big_ = false;
  bool negative_ = false;  // meaningful only when big_
  union {
    std::int64_t small_;
    LimbVec limbs_;
  };
};

std::ostream& operator<<(std::ostream& os, const BigInt& value);

}  // namespace mpss

template <>
struct std::hash<mpss::BigInt> {
  std::size_t operator()(const mpss::BigInt& v) const noexcept { return v.hash(); }
};
