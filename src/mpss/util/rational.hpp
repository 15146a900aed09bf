#pragma once
// Exact rational numbers over BigInt (substrate S2, see DESIGN.md).
//
// All scheduling quantities -- times, interval lengths, work volumes, speeds, flow
// values -- are represented as mpss::Q so that the offline algorithm's control flow
// (e.g. "max-flow value == W/s") uses the exact tests from the paper instead of
// floating-point tolerances.
//
// Normalization (the hottest call in the exact engine) rides BigInt's small-value
// representation: when numerator and denominator both fit a machine word it runs a
// binary GCD on int64 with zero allocations, counted in
// numeric_counters().rational_norm_small.

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "mpss/util/bigint.hpp"

namespace mpss {

/// Exact rational number. Invariant: denominator > 0 and gcd(num, den) == 1;
/// zero is canonically 0/1.
class Rational {
 public:
  /// Zero.
  Rational() : num_(0), den_(1) {}

  /// From integer.
  Rational(std::int64_t value) : num_(value), den_(1) {}  // NOLINT: intentional
  Rational(int value) : num_(value), den_(1) {}           // NOLINT: intentional
  Rational(BigInt value) : num_(std::move(value)), den_(1) {}  // NOLINT: intentional

  /// num/den; throws std::domain_error when den == 0.
  Rational(BigInt num, BigInt den);
  Rational(std::int64_t num, std::int64_t den) : Rational(BigInt(num), BigInt(den)) {}

  /// Parses "a", "-a", or "a/b" decimal forms.
  static Rational from_string(std::string_view text);

  [[nodiscard]] const BigInt& num() const { return num_; }
  [[nodiscard]] const BigInt& den() const { return den_; }

  [[nodiscard]] bool is_zero() const { return num_.is_zero(); }
  [[nodiscard]] bool is_integer() const { return den_.is_one(); }
  [[nodiscard]] int sign() const { return num_.sign(); }

  [[nodiscard]] Rational abs() const;
  Rational operator-() const;

  /// Reciprocal; throws std::domain_error when zero.
  [[nodiscard]] Rational inverse() const;

  /// Fused in-place sum/difference (the flow kernel's augment/retract
  /// primitives). When all four parts fit machine words the cross products,
  /// the combine, and the gcd reduction run on int64 with overflow-checked
  /// builtins and ZERO BigInt temporaries; otherwise this is the classic
  /// cross-multiply-and-normalize. Result is canonical either way, so values
  /// are bit-identical to the operator chain they replace. operator+=/-=
  /// delegate here.
  Rational& add_assign(const Rational& rhs);
  Rational& sub_assign(const Rational& rhs);

  /// `*this = min(*this, other)` without constructing a temporary (uses
  /// compare(), so no cross-product BigInts on the small path).
  void min_in_place(const Rational& other) {
    if (other.compare(*this) < 0) *this = other;
  }

  /// Three-way compare (-1/0/+1) without materializing cross products: both
  /// denominators are positive by invariant, so on the small path the two
  /// int64 cross products are compared in 128-bit arithmetic with no BigInt
  /// construction and no normalization. operator<=> delegates here.
  [[nodiscard]] int compare(const Rational& rhs) const;

  Rational& operator+=(const Rational& rhs) { return add_assign(rhs); }
  Rational& operator-=(const Rational& rhs) { return sub_assign(rhs); }
  Rational& operator*=(const Rational& rhs);
  /// Throws std::domain_error on division by zero.
  Rational& operator/=(const Rational& rhs);

  friend Rational operator+(Rational lhs, const Rational& rhs) { return lhs += rhs; }
  friend Rational operator-(Rational lhs, const Rational& rhs) { return lhs -= rhs; }
  friend Rational operator*(Rational lhs, const Rational& rhs) { return lhs *= rhs; }
  friend Rational operator/(Rational lhs, const Rational& rhs) { return lhs /= rhs; }

  friend bool operator==(const Rational& lhs, const Rational& rhs) {
    return lhs.num_ == rhs.num_ && lhs.den_ == rhs.den_;
  }
  friend std::strong_ordering operator<=>(const Rational& lhs, const Rational& rhs) {
    int order = lhs.compare(rhs);
    if (order < 0) return std::strong_ordering::less;
    if (order > 0) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }

  /// Largest integer <= value.
  [[nodiscard]] BigInt floor() const;
  /// Smallest integer >= value.
  [[nodiscard]] BigInt ceil() const;

  [[nodiscard]] double to_double() const;

  /// "num" when integral, otherwise "num/den".
  [[nodiscard]] std::string to_string() const;
  /// Appends to_string() to `out` (std::to_chars on BigInt's small path).
  void append_to(std::string& out) const;

  [[nodiscard]] std::size_t hash() const {
    return num_.hash() * 0x100000001b3ull ^ den_.hash();
  }

 private:
  void normalize();
  Rational& fused_add_sub(const Rational& rhs, bool subtract);

  BigInt num_;
  BigInt den_;
};

/// Canonical scalar type of the scheduling core.
using Q = Rational;

[[nodiscard]] inline const Q& min(const Q& a, const Q& b) { return b < a ? b : a; }
[[nodiscard]] inline const Q& max(const Q& a, const Q& b) { return a < b ? b : a; }

std::ostream& operator<<(std::ostream& os, const Rational& value);

}  // namespace mpss

template <>
struct std::hash<mpss::Rational> {
  std::size_t operator()(const mpss::Rational& v) const noexcept { return v.hash(); }
};
