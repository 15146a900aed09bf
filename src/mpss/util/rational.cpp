#include "mpss/util/rational.hpp"

#include <cstdint>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "mpss/util/numeric_counters.hpp"

namespace mpss {

Rational::Rational(BigInt num, BigInt den) : num_(std::move(num)), den_(std::move(den)) {
  if (den_.is_zero()) throw std::domain_error("Rational: zero denominator");
  normalize();
}

void Rational::normalize() {
  // Small path: both parts word-sized (the overwhelmingly common case on
  // realistic instances). Sign fixup, binary GCD, and the divisions all run on
  // int64 with zero allocations. INT64_MIN is excluded so every negation below
  // stays in range.
  if (num_.is_small() && den_.is_small() && !BigInt::test_force_big()) {
    std::int64_t n = num_.small_value();
    std::int64_t d = den_.small_value();
    if (n != std::numeric_limits<std::int64_t>::min() &&
        d != std::numeric_limits<std::int64_t>::min()) {
      ++numeric_counters().rational_norm_small;
      if (d < 0) {
        n = -n;
        d = -d;
      }
      if (n == 0) {
        num_ = BigInt();
        den_ = BigInt(1);
        return;
      }
      std::uint64_t g = BigInt::gcd_u64(n < 0 ? static_cast<std::uint64_t>(-n)
                                              : static_cast<std::uint64_t>(n),
                                        static_cast<std::uint64_t>(d));
      if (g != 1) {
        n /= static_cast<std::int64_t>(g);
        d /= static_cast<std::int64_t>(g);
      }
      num_ = BigInt(n);
      den_ = BigInt(d);
      return;
    }
  }
  if (den_.sign() < 0) {
    num_ = num_.negated();
    den_ = den_.negated();
  }
  if (num_.is_zero()) {
    den_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::gcd(num_, den_);
  if (!g.is_one()) {
    num_ /= g;
    den_ /= g;
  }
}

Rational Rational::from_string(std::string_view text) {
  std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return Rational(BigInt::from_string(text));
  return Rational(BigInt::from_string(text.substr(0, slash)),
                  BigInt::from_string(text.substr(slash + 1)));
}

Rational Rational::abs() const {
  Rational out = *this;
  out.num_ = out.num_.abs();
  return out;
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.num_ = out.num_.negated();
  return out;
}

Rational Rational::inverse() const {
  if (is_zero()) throw std::domain_error("Rational::inverse: zero");
  return Rational(den_, num_);
}

namespace {

/// True when every part of both operands is on BigInt's inline-int64 path
/// (and the test hook isn't forcing the limb representation).
inline bool all_small(const Rational& lhs, const Rational& rhs) {
  return lhs.num().is_small() && lhs.den().is_small() && rhs.num().is_small() &&
         rhs.den().is_small() && !BigInt::test_force_big();
}

}  // namespace

Rational& Rational::fused_add_sub(const Rational& rhs, bool subtract) {
  if (all_small(*this, rhs)) {
    // Fused small path: cross products, combine, and gcd all on int64 with
    // overflow-checked builtins -- no BigInt temporaries, one counter bump.
    // Operands are canonical (den > 0), so the result denominator is positive
    // whenever its product doesn't overflow.
    const std::int64_t ln = num_.small_value();
    const std::int64_t ld = den_.small_value();
    const std::int64_t rn = rhs.num_.small_value();
    const std::int64_t rd = rhs.den_.small_value();
    std::int64_t cross_l = 0;
    std::int64_t cross_r = 0;
    std::int64_t den = 0;
    std::int64_t num = 0;
    if (!__builtin_mul_overflow(ln, rd, &cross_l) &&
        !__builtin_mul_overflow(rn, ld, &cross_r) &&
        !__builtin_mul_overflow(ld, rd, &den) &&
        !(subtract ? __builtin_sub_overflow(cross_l, cross_r, &num)
                   : __builtin_add_overflow(cross_l, cross_r, &num))) {
      if (num == 0) {
        num_ = BigInt();
        den_ = BigInt(1);
        ++numeric_counters().rational_norm_small;
        return *this;
      }
      if (num != std::numeric_limits<std::int64_t>::min()) {
        ++numeric_counters().rational_norm_small;
        std::uint64_t g = BigInt::gcd_u64(
            num < 0 ? static_cast<std::uint64_t>(-num)
                    : static_cast<std::uint64_t>(num),
            static_cast<std::uint64_t>(den));
        if (g != 1) {
          num /= static_cast<std::int64_t>(g);
          den /= static_cast<std::int64_t>(g);
        }
        num_ = BigInt(num);
        den_ = BigInt(den);
        return *this;
      }
      // num == INT64_MIN: representable, but normalize()'s negation-free
      // small path excludes it. Store and take the generic reduction.
      num_ = BigInt(num);
      den_ = BigInt(den);
      normalize();
      return *this;
    }
  }
  num_ = subtract ? num_ * rhs.den_ - rhs.num_ * den_
                  : num_ * rhs.den_ + rhs.num_ * den_;
  den_ *= rhs.den_;
  normalize();
  return *this;
}

Rational& Rational::add_assign(const Rational& rhs) {
  return fused_add_sub(rhs, /*subtract=*/false);
}

Rational& Rational::sub_assign(const Rational& rhs) {
  return fused_add_sub(rhs, /*subtract=*/true);
}

Rational& Rational::operator*=(const Rational& rhs) {
  num_ *= rhs.num_;
  den_ *= rhs.den_;
  normalize();
  return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
  if (rhs.is_zero()) throw std::domain_error("Rational: division by zero");
  num_ *= rhs.den_;
  den_ *= rhs.num_;
  normalize();
  return *this;
}

int Rational::compare(const Rational& rhs) const {
  // Denominators are positive, so cross-multiplication preserves order.
  if (all_small(*this, rhs)) {
    // 128-bit cross products: no overflow cases, no BigInt construction.
    const __int128 lhs_cross =
        static_cast<__int128>(num_.small_value()) * rhs.den_.small_value();
    const __int128 rhs_cross =
        static_cast<__int128>(rhs.num_.small_value()) * den_.small_value();
    return static_cast<int>(lhs_cross > rhs_cross) -
           static_cast<int>(lhs_cross < rhs_cross);
  }
  BigInt lhs_cross = num_ * rhs.den_;
  BigInt rhs_cross = rhs.num_ * den_;
  auto order = lhs_cross <=> rhs_cross;
  return order < 0 ? -1 : (order > 0 ? 1 : 0);
}

BigInt Rational::floor() const {
  auto [quotient, remainder] = BigInt::divmod(num_, den_);
  if (remainder.sign() < 0) quotient -= BigInt(1);
  return quotient;
}

BigInt Rational::ceil() const {
  auto [quotient, remainder] = BigInt::divmod(num_, den_);
  if (remainder.sign() > 0) quotient += BigInt(1);
  return quotient;
}

double Rational::to_double() const { return num_.to_double() / den_.to_double(); }

std::string Rational::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Rational::append_to(std::string& out) const {
  num_.append_to(out);
  if (is_integer()) return;
  out.push_back('/');
  den_.append_to(out);
}

std::ostream& operator<<(std::ostream& os, const Rational& value) {
  return os << value.to_string();
}

}  // namespace mpss
