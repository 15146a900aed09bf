#include "mpss/util/bigint.hpp"

#include <algorithm>
#include <charconv>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "mpss/util/numeric_counters.hpp"

namespace mpss {

namespace {

constexpr std::uint64_t kInt64MinMagnitude = std::uint64_t{1} << 63;

/// Magnitude of an int64 without UB on INT64_MIN.
std::uint64_t magnitude_of(std::int64_t value) {
  return value < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(value)
                   : static_cast<std::uint64_t>(value);
}

/// -1 / 0 / +1 comparing a limb magnitude against a raw 64-bit magnitude.
int compare_limbs_vs_u64(const std::vector<std::uint32_t>& limbs,
                         std::uint64_t magnitude) {
  if (limbs.size() > 2) return 1;
  std::uint64_t value = 0;
  if (limbs.size() >= 1) value |= limbs[0];
  if (limbs.size() == 2) value |= static_cast<std::uint64_t>(limbs[1]) << 32;
  return (value > magnitude) - (value < magnitude);
}

}  // namespace

bool BigInt::test_force_big_ = false;

void BigInt::copy_limbs_from(const BigInt& other) {
  new (&limbs_) LimbVec(other.limbs_);
  big_ = true;
  negative_ = other.negative_;
}

void BigInt::move_limbs_from(BigInt& other) noexcept {
  new (&limbs_) LimbVec(std::move(other.limbs_));
  big_ = true;
  negative_ = other.negative_;
  other.negative_ = false;  // moved-from becomes canonical zero
}

BigInt& BigInt::assign_limbs(const BigInt& other) {
  if (this == &other) return *this;
  if (big_ && other.big_) {
    limbs_ = other.limbs_;  // reuse capacity
  } else if (other.big_) {
    new (&limbs_) LimbVec(other.limbs_);
    big_ = true;
  } else {
    limbs_.~LimbVec();
    big_ = false;
    small_ = other.small_;
  }
  negative_ = other.negative_;
  return *this;
}

BigInt& BigInt::move_assign_limbs(BigInt& other) noexcept {
  if (this == &other) return *this;
  if (big_ && other.big_) {
    limbs_ = std::move(other.limbs_);
  } else if (other.big_) {
    new (&limbs_) LimbVec(std::move(other.limbs_));
    big_ = true;
  } else {
    limbs_.~LimbVec();
    big_ = false;
    small_ = other.small_;
  }
  negative_ = other.negative_;
  if (other.big_) other.negative_ = false;
  return *this;
}

void BigInt::promote() {
  if (big_) return;
  std::uint64_t magnitude = magnitude_of(small_);
  bool negative = small_ < 0;
  new (&limbs_) LimbVec();
  big_ = true;
  negative_ = negative;
  while (magnitude != 0) {
    limbs_.push_back(static_cast<Limb>(magnitude & 0xffffffffu));
    magnitude >>= kLimbBits;
  }
}

void BigInt::demote_if_fits() {
  if (!big_ || test_force_big_) return;
  if (limbs_.size() > 2) return;
  std::uint64_t magnitude = 0;
  if (limbs_.size() >= 1) magnitude |= limbs_[0];
  if (limbs_.size() == 2) magnitude |= static_cast<std::uint64_t>(limbs_[1]) << kLimbBits;
  if (negative_ ? magnitude > kInt64MinMagnitude : magnitude >= kInt64MinMagnitude)
    return;
  std::int64_t value =
      negative_ ? -static_cast<std::int64_t>(magnitude - 1) - 1
                : static_cast<std::int64_t>(magnitude);
  limbs_.~LimbVec();
  big_ = false;
  negative_ = false;
  small_ = value;
}

void BigInt::adopt_limbs(LimbVec limbs, bool negative) {
  while (!limbs.empty() && limbs.back() == 0) limbs.pop_back();
  if (big_) {
    limbs_ = std::move(limbs);
  } else {
    new (&limbs_) LimbVec(std::move(limbs));
    big_ = true;
  }
  negative_ = negative && !limbs_.empty();
  demote_if_fits();
}

BigInt BigInt::from_u64(std::uint64_t magnitude, bool negative) {
  BigInt out;
  if (!test_force_big_ &&
      (negative ? magnitude <= kInt64MinMagnitude : magnitude < kInt64MinMagnitude)) {
    out.small_ = negative ? -static_cast<std::int64_t>(magnitude - 1) - 1
                          : static_cast<std::int64_t>(magnitude);
    if (magnitude == 0) out.small_ = 0;
    return out;
  }
  LimbVec limbs;
  while (magnitude != 0) {
    limbs.push_back(static_cast<Limb>(magnitude & 0xffffffffu));
    magnitude >>= kLimbBits;
  }
  out.adopt_limbs(std::move(limbs), negative);
  return out;
}

void BigInt::force_big() { promote(); }

namespace {
/// Big-representation view of `value`: `value` itself when already big,
/// otherwise a promoted copy parked in `storage`.
const BigInt& ensure_big(const BigInt& value, BigInt& storage) {
  if (!value.is_small()) return value;
  storage = value;
  storage.force_big();
  return storage;
}
}  // namespace

BigInt BigInt::from_string(std::string_view text) {
  if (text.empty()) throw std::invalid_argument("BigInt::from_string: empty string");
  bool negative = false;
  std::size_t pos = 0;
  if (text[0] == '+' || text[0] == '-') {
    negative = text[0] == '-';
    pos = 1;
  }
  if (pos == text.size()) throw std::invalid_argument("BigInt::from_string: lone sign");
  // Up to 18 digits always fit int64: one std::from_chars call, which for an
  // unsigned type reads digits only.
  if (text.size() - pos <= 18) {
    std::uint64_t magnitude = 0;
    const char* last = text.data() + text.size();
    auto [end, error] = std::from_chars(text.data() + pos, last, magnitude);
    if (end != last || error != std::errc{})
      throw std::invalid_argument("BigInt::from_string: non-digit character");
    const auto value = static_cast<std::int64_t>(magnitude);
    return BigInt(negative ? -value : value);
  }
  BigInt result;
  for (; pos < text.size(); ++pos) {
    char c = text[pos];
    if (c < '0' || c > '9')
      throw std::invalid_argument("BigInt::from_string: non-digit character");
    result *= BigInt(10);
    result += BigInt(c - '0');
  }
  if (negative) result = result.negated();
  return result;
}

int BigInt::compare_magnitude(const LimbVec& a, const LimbVec& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<BigInt::Limb> BigInt::add_magnitude(const LimbVec& a, const LimbVec& b) {
  const LimbVec& longer = a.size() >= b.size() ? a : b;
  const LimbVec& shorter = a.size() >= b.size() ? b : a;
  LimbVec out;
  out.reserve(longer.size() + 1);
  DoubleLimb carry = 0;
  for (std::size_t i = 0; i < longer.size(); ++i) {
    DoubleLimb sum = carry + longer[i];
    if (i < shorter.size()) sum += shorter[i];
    out.push_back(static_cast<Limb>(sum & 0xffffffffu));
    carry = sum >> kLimbBits;
  }
  if (carry != 0) out.push_back(static_cast<Limb>(carry));
  return out;
}

std::vector<BigInt::Limb> BigInt::sub_magnitude(const LimbVec& a, const LimbVec& b) {
  LimbVec out;
  out.reserve(a.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow -
                        (i < b.size() ? static_cast<std::int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += (std::int64_t{1} << kLimbBits);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<Limb>(diff));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<BigInt::Limb> BigInt::mul_magnitude(const LimbVec& a, const LimbVec& b) {
  if (a.empty() || b.empty()) return {};
  LimbVec out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    DoubleLimb carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      DoubleLimb cur = static_cast<DoubleLimb>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> kLimbBits;
    }
    std::size_t k = i + b.size();
    while (carry != 0) {
      DoubleLimb cur = carry + out[k];
      out[k] = static_cast<Limb>(cur & 0xffffffffu);
      carry = cur >> kLimbBits;
      ++k;
    }
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::pair<std::vector<BigInt::Limb>, std::vector<BigInt::Limb>> BigInt::divmod_magnitude(
    const LimbVec& num, const LimbVec& den) {
  if (den.empty()) throw std::domain_error("BigInt: division by zero");
  if (compare_magnitude(num, den) < 0) return {{}, num};

  // Fast path: single-limb divisor.
  if (den.size() == 1) {
    LimbVec quot(num.size(), 0);
    DoubleLimb rem = 0;
    for (std::size_t i = num.size(); i-- > 0;) {
      DoubleLimb cur = (rem << kLimbBits) | num[i];
      quot[i] = static_cast<Limb>(cur / den[0]);
      rem = cur % den[0];
    }
    while (!quot.empty() && quot.back() == 0) quot.pop_back();
    LimbVec remainder;
    if (rem != 0) remainder.push_back(static_cast<Limb>(rem));
    return {quot, remainder};
  }

  // Knuth algorithm D with normalization so the top divisor limb has its high bit set.
  int shift = 0;
  for (Limb top = den.back(); (top & 0x80000000u) == 0; top <<= 1) ++shift;

  auto shift_left = [](const LimbVec& v, int bits) {
    if (bits == 0) return v;
    LimbVec out(v.size() + 1, 0);
    for (std::size_t i = 0; i < v.size(); ++i) {
      out[i] |= static_cast<Limb>(static_cast<DoubleLimb>(v[i]) << bits);
      out[i + 1] = static_cast<Limb>(static_cast<DoubleLimb>(v[i]) >> (kLimbBits - bits));
    }
    while (!out.empty() && out.back() == 0) out.pop_back();
    return out;
  };
  auto shift_right = [](LimbVec v, int bits) {
    if (bits == 0) return v;
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] >>= bits;
      if (i + 1 < v.size())
        v[i] |= static_cast<Limb>(static_cast<DoubleLimb>(v[i + 1]) << (kLimbBits - bits));
    }
    while (!v.empty() && v.back() == 0) v.pop_back();
    return v;
  };

  LimbVec u = shift_left(num, shift);
  LimbVec v = shift_left(den, shift);
  const std::size_t n = v.size();
  const std::size_t m = u.size() >= n ? u.size() - n : 0;
  u.resize(u.size() + 1, 0);  // extra high limb for the algorithm

  LimbVec quot(m + 1, 0);
  const DoubleLimb base = DoubleLimb{1} << kLimbBits;
  for (std::size_t j = m + 1; j-- > 0;) {
    DoubleLimb numerator = (static_cast<DoubleLimb>(u[j + n]) << kLimbBits) | u[j + n - 1];
    DoubleLimb qhat = numerator / v[n - 1];
    DoubleLimb rhat = numerator % v[n - 1];
    while (qhat >= base ||
           qhat * v[n - 2] > ((rhat << kLimbBits) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= base) break;
    }
    // Multiply-subtract qhat*v from u[j .. j+n].
    std::int64_t borrow = 0;
    DoubleLimb carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      DoubleLimb product = qhat * v[i] + carry;
      carry = product >> kLimbBits;
      std::int64_t diff = static_cast<std::int64_t>(u[i + j]) - borrow -
                          static_cast<std::int64_t>(product & 0xffffffffu);
      if (diff < 0) {
        diff += static_cast<std::int64_t>(base);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<Limb>(diff);
    }
    std::int64_t top = static_cast<std::int64_t>(u[j + n]) - borrow -
                       static_cast<std::int64_t>(carry);
    if (top < 0) {
      // qhat was one too large: add v back once.
      top += static_cast<std::int64_t>(base);
      --qhat;
      DoubleLimb add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        DoubleLimb sum = static_cast<DoubleLimb>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<Limb>(sum & 0xffffffffu);
        add_carry = sum >> kLimbBits;
      }
      top += static_cast<std::int64_t>(add_carry);
      top &= static_cast<std::int64_t>(base - 1);
    }
    u[j + n] = static_cast<Limb>(top);
    quot[j] = static_cast<Limb>(qhat);
  }

  while (!quot.empty() && quot.back() == 0) quot.pop_back();
  u.resize(n);
  while (!u.empty() && u.back() == 0) u.pop_back();
  return {quot, shift_right(std::move(u), shift)};
}

BigInt BigInt::abs() const {
  if (small_repr()) return small_ < 0 ? negated() : *this;
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

BigInt BigInt::negated() const {
  if (small_repr()) {
    if (small_ == std::numeric_limits<std::int64_t>::min())
      return from_u64(kInt64MinMagnitude, false);
    BigInt out;
    out.small_ = -small_;
    return out;
  }
  BigInt out = *this;
  if (!out.limbs_.empty()) out.negative_ = !out.negative_;
  out.demote_if_fits();  // +2^63 negates to INT64_MIN, which is small
  return out;
}

BigInt& BigInt::operator+=(const BigInt& rhs) {
  if (small_repr() && rhs.small_repr() && !test_force_big_) {
    std::int64_t sum;
    if (!__builtin_add_overflow(small_, rhs.small_, &sum)) {
      small_ = sum;
      ++numeric_counters().bigint_small_hits;
      return *this;
    }
    // Same-sign overflow: the exact sum's magnitude is at most 2^64, so build
    // it from the wrapped unsigned sum directly. The lone magnitude-2^64 case
    // (INT64_MIN + INT64_MIN wraps to 0) needs a third limb.
    ++numeric_counters().bigint_promotions;
    std::uint64_t wrapped =
        static_cast<std::uint64_t>(small_) + static_cast<std::uint64_t>(rhs.small_);
    if (small_ >= 0) {
      *this = from_u64(wrapped, false);
    } else if (wrapped == 0) {
      adopt_limbs({0, 0, 1}, true);
    } else {
      *this = from_u64(std::uint64_t{0} - wrapped, true);
    }
    return *this;
  }
  BigInt lhs_storage, rhs_storage;
  const BigInt& a = ensure_big(*this, lhs_storage);
  const BigInt& b = ensure_big(rhs, rhs_storage);
  bool negative;
  LimbVec magnitude;
  if (a.negative_ == b.negative_) {
    negative = a.negative_;
    magnitude = add_magnitude(a.limbs_, b.limbs_);
  } else {
    int cmp = compare_magnitude(a.limbs_, b.limbs_);
    if (cmp == 0) {
      adopt_limbs({}, false);
      return *this;
    }
    if (cmp > 0) {
      negative = a.negative_;
      magnitude = sub_magnitude(a.limbs_, b.limbs_);
    } else {
      negative = b.negative_;
      magnitude = sub_magnitude(b.limbs_, a.limbs_);
    }
  }
  adopt_limbs(std::move(magnitude), negative);
  return *this;
}

BigInt& BigInt::operator-=(const BigInt& rhs) {
  if (small_repr() && rhs.small_repr() && !test_force_big_) {
    std::int64_t diff;
    if (!__builtin_sub_overflow(small_, rhs.small_, &diff)) {
      small_ = diff;
      ++numeric_counters().bigint_small_hits;
      return *this;
    }
    ++numeric_counters().bigint_promotions;
    std::uint64_t wrapped =
        static_cast<std::uint64_t>(small_) - static_cast<std::uint64_t>(rhs.small_);
    *this = small_ >= 0 ? from_u64(wrapped, false)
                        : from_u64(std::uint64_t{0} - wrapped, true);
    return *this;
  }
  return *this += rhs.negated();
}

BigInt& BigInt::operator*=(const BigInt& rhs) {
  if (small_repr() && rhs.small_repr() && !test_force_big_) {
    std::int64_t product;
    if (!__builtin_mul_overflow(small_, rhs.small_, &product)) {
      small_ = product;
      ++numeric_counters().bigint_small_hits;
      return *this;
    }
    ++numeric_counters().bigint_promotions;
#if defined(__SIZEOF_INT128__)
    bool negative = (small_ < 0) != (rhs.small_ < 0);
    unsigned __int128 product128 = static_cast<unsigned __int128>(magnitude_of(small_)) *
                                   magnitude_of(rhs.small_);
    LimbVec limbs;
    while (product128 != 0) {
      limbs.push_back(static_cast<Limb>(static_cast<std::uint64_t>(product128) &
                                        0xffffffffu));
      product128 >>= kLimbBits;
    }
    adopt_limbs(std::move(limbs), negative);
    return *this;
#endif
  }
  BigInt lhs_storage, rhs_storage;
  const BigInt& a = ensure_big(*this, lhs_storage);
  const BigInt& b = ensure_big(rhs, rhs_storage);
  bool negative = a.negative_ != b.negative_;
  adopt_limbs(mul_magnitude(a.limbs_, b.limbs_), negative);
  return *this;
}

BigInt& BigInt::operator/=(const BigInt& rhs) {
  *this = divmod(*this, rhs).first;
  return *this;
}

BigInt& BigInt::operator%=(const BigInt& rhs) {
  *this = divmod(*this, rhs).second;
  return *this;
}

std::pair<BigInt, BigInt> BigInt::divmod(const BigInt& num, const BigInt& den) {
  if (num.small_repr() && den.small_repr() && !test_force_big_) {
    if (den.small_ == 0) throw std::domain_error("BigInt: division by zero");
    ++numeric_counters().bigint_small_hits;
    if (num.small_ == std::numeric_limits<std::int64_t>::min() && den.small_ == -1)
      return {from_u64(kInt64MinMagnitude, false), BigInt()};
    BigInt quotient, remainder;
    quotient.small_ = num.small_ / den.small_;
    remainder.small_ = num.small_ % den.small_;
    return {std::move(quotient), std::move(remainder)};
  }
  BigInt num_storage, den_storage;
  const BigInt& a = ensure_big(num, num_storage);
  const BigInt& b = ensure_big(den, den_storage);
  auto [q_mag, r_mag] = divmod_magnitude(a.limbs_, b.limbs_);
  BigInt quotient, remainder;
  quotient.adopt_limbs(std::move(q_mag), a.negative_ != b.negative_);
  remainder.adopt_limbs(std::move(r_mag), a.negative_);
  return {std::move(quotient), std::move(remainder)};
}

int BigInt::compare_values(const BigInt& lhs, const BigInt& rhs) {
  if (lhs.small_repr() && rhs.small_repr())
    return (lhs.small_ > rhs.small_) - (lhs.small_ < rhs.small_);
  int lhs_sign = lhs.sign();
  int rhs_sign = rhs.sign();
  if (lhs_sign != rhs_sign) return lhs_sign < rhs_sign ? -1 : 1;
  if (lhs_sign == 0) return 0;
  int magnitude_cmp;
  if (!lhs.small_repr() && !rhs.small_repr()) {
    magnitude_cmp = compare_magnitude(lhs.limbs_, rhs.limbs_);
  } else if (lhs.small_repr()) {
    magnitude_cmp = -compare_limbs_vs_u64(rhs.limbs_, magnitude_of(lhs.small_));
  } else {
    magnitude_cmp = compare_limbs_vs_u64(lhs.limbs_, magnitude_of(rhs.small_));
  }
  return lhs_sign > 0 ? magnitude_cmp : -magnitude_cmp;
}

bool operator==(const BigInt& lhs, const BigInt& rhs) {
  if (lhs.big_ == rhs.big_) {
    if (!lhs.big_) return lhs.small_ == rhs.small_;
    return lhs.negative_ == rhs.negative_ && lhs.limbs_ == rhs.limbs_;
  }
  return BigInt::compare_values(lhs, rhs) == 0;
}

std::strong_ordering operator<=>(const BigInt& lhs, const BigInt& rhs) {
  int cmp = BigInt::compare_values(lhs, rhs);
  if (cmp < 0) return std::strong_ordering::less;
  if (cmp > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

std::uint64_t BigInt::gcd_u64(std::uint64_t a, std::uint64_t b) noexcept {
  if (a == 0) return b;
  if (b == 0) return a;
  int a_twos = __builtin_ctzll(a);
  int b_twos = __builtin_ctzll(b);
  int shift = a_twos < b_twos ? a_twos : b_twos;
  b >>= b_twos;
  while (a != 0) {
    a >>= __builtin_ctzll(a);
    if (a < b) std::swap(a, b);
    a -= b;
  }
  return b << shift;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  // Euclid on big operands demotes as magnitudes shrink, dropping into the
  // allocation-free binary GCD the moment both fit a machine word.
  while (true) {
    if (a.small_repr() && b.small_repr() && !test_force_big_) {
      ++numeric_counters().bigint_small_hits;
      return from_u64(gcd_u64(magnitude_of(a.small_), magnitude_of(b.small_)), false);
    }
    if (b.is_zero()) return a.abs();
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
}

void BigInt::append_to(std::string& out) const {
  if (!small_repr()) {
    out += to_string();
    return;
  }
  char buffer[24];
  char* end = std::to_chars(buffer, buffer + sizeof buffer, small_).ptr;
  out.append(buffer, end);
}

std::string BigInt::to_string() const {
  if (small_repr()) return std::to_string(small_);
  if (limbs_.empty()) return "0";
  // Repeatedly divide by 10^9 to peel decimal chunks.
  LimbVec mag = limbs_;
  std::string digits;
  constexpr Limb kChunk = 1000000000u;
  while (!mag.empty()) {
    DoubleLimb rem = 0;
    for (std::size_t i = mag.size(); i-- > 0;) {
      DoubleLimb cur = (rem << kLimbBits) | mag[i];
      mag[i] = static_cast<Limb>(cur / kChunk);
      rem = cur % kChunk;
    }
    while (!mag.empty() && mag.back() == 0) mag.pop_back();
    for (int k = 0; k < 9; ++k) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

double BigInt::to_double() const {
  if (small_repr()) return static_cast<double>(small_);
  double out = 0.0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    out = out * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return negative_ ? -out : out;
}

bool BigInt::fits_int64() const {
  if (small_repr()) return true;
  if (limbs_.size() > 2) return false;
  if (limbs_.size() < 2) return true;
  std::uint64_t mag = (static_cast<std::uint64_t>(limbs_[1]) << kLimbBits) | limbs_[0];
  return negative_ ? mag <= kInt64MinMagnitude : mag < kInt64MinMagnitude;
}

std::int64_t BigInt::to_int64() const {
  if (small_repr()) return small_;
  if (!fits_int64()) throw std::overflow_error("BigInt::to_int64: out of range");
  std::uint64_t mag = 0;
  if (limbs_.size() >= 1) mag |= limbs_[0];
  if (limbs_.size() >= 2) mag |= static_cast<std::uint64_t>(limbs_[1]) << kLimbBits;
  return negative_ ? -static_cast<std::int64_t>(mag - 1) - 1
                   : static_cast<std::int64_t>(mag);
}

std::size_t BigInt::bit_length() const {
  if (small_repr()) {
    std::uint64_t mag = magnitude_of(small_);
    return mag == 0 ? 0 : 64 - static_cast<std::size_t>(__builtin_clzll(mag));
  }
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * kLimbBits;
  Limb top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

std::size_t BigInt::hash() const {
  // Representation independent: walk the little-endian limb decomposition of
  // the magnitude whether it lives inline or in the vector.
  std::size_t h = is_negative() ? 0x9e3779b97f4a7c15ull : 0x2545f4914f6cdd1dull;
  if (small_repr()) {
    std::uint64_t mag = magnitude_of(small_);
    while (mag != 0) {
      h = h * 1099511628211ull ^ static_cast<Limb>(mag & 0xffffffffu);
      mag >>= kLimbBits;
    }
    return h;
  }
  for (Limb limb : limbs_) h = h * 1099511628211ull ^ limb;
  return h;
}

std::ostream& operator<<(std::ostream& os, const BigInt& value) {
  return os << value.to_string();
}

}  // namespace mpss
