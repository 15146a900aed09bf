// Unit and property tests for the arbitrary-precision integer substrate (S1).

#include "mpss/util/bigint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "mpss/util/numeric_counters.hpp"
#include "mpss/util/random.hpp"

namespace mpss {
namespace {

TEST(BigInt, DefaultIsZero) {
  BigInt zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.sign(), 0);
  EXPECT_EQ(zero.to_string(), "0");
  EXPECT_EQ(zero.to_int64(), 0);
}

TEST(BigInt, ConstructsFromInt64) {
  EXPECT_EQ(BigInt(42).to_string(), "42");
  EXPECT_EQ(BigInt(-42).to_string(), "-42");
  EXPECT_EQ(BigInt(0).to_string(), "0");
  EXPECT_EQ(BigInt(std::numeric_limits<std::int64_t>::max()).to_string(),
            "9223372036854775807");
  EXPECT_EQ(BigInt(std::numeric_limits<std::int64_t>::min()).to_string(),
            "-9223372036854775808");
}

TEST(BigInt, Int64RoundTrip) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{1} << 40, -(std::int64_t{1} << 40),
                         std::numeric_limits<std::int64_t>::max(),
                         std::numeric_limits<std::int64_t>::min()}) {
    EXPECT_EQ(BigInt(v).to_int64(), v) << v;
    EXPECT_TRUE(BigInt(v).fits_int64());
  }
}

TEST(BigInt, ToInt64ThrowsWhenTooLarge) {
  BigInt big = BigInt(std::numeric_limits<std::int64_t>::max()) + BigInt(1);
  EXPECT_FALSE(big.fits_int64());
  EXPECT_THROW((void)big.to_int64(), std::overflow_error);
  // INT64_MIN itself still fits.
  BigInt lowest = BigInt(std::numeric_limits<std::int64_t>::min());
  EXPECT_TRUE(lowest.fits_int64());
  EXPECT_THROW((void)(lowest - BigInt(1)).to_int64(), std::overflow_error);
}

TEST(BigInt, FromStringParsesSignsAndZeros) {
  EXPECT_EQ(BigInt::from_string("123"), BigInt(123));
  EXPECT_EQ(BigInt::from_string("-123"), BigInt(-123));
  EXPECT_EQ(BigInt::from_string("+123"), BigInt(123));
  EXPECT_EQ(BigInt::from_string("0"), BigInt(0));
  EXPECT_EQ(BigInt::from_string("-0"), BigInt(0));
  EXPECT_EQ(BigInt::from_string("000042"), BigInt(42));
}

TEST(BigInt, FromStringRejectsGarbage) {
  EXPECT_THROW((void)BigInt::from_string(""), std::invalid_argument);
  EXPECT_THROW((void)BigInt::from_string("-"), std::invalid_argument);
  EXPECT_THROW((void)BigInt::from_string("12a3"), std::invalid_argument);
  EXPECT_THROW((void)BigInt::from_string(" 12"), std::invalid_argument);
}

/// what() of the std::invalid_argument BigInt::from_string throws on `text`.
std::string from_string_error(std::string_view text) {
  try {
    (void)BigInt::from_string(text);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "(accepted)";
}

TEST(BigInt, FromStringAroundTheWordBoundary) {
  // 18 digits always fit int64, 19 may not; both lengths, both signs, the
  // int64 extremes and one past them, with and without the limb mode.
  for (bool force_big : {false, true}) {
    BigInt::set_test_force_big(force_big);
    EXPECT_EQ(BigInt::from_string("999999999999999999").to_string(),
              "999999999999999999");
    EXPECT_EQ(BigInt::from_string("-999999999999999999").to_int64(),
              -999999999999999999);
    EXPECT_EQ(BigInt::from_string("1000000000000000000").to_int64(),
              1000000000000000000);
    EXPECT_EQ(BigInt::from_string("9223372036854775807").to_int64(), INT64_MAX);
    EXPECT_EQ(BigInt::from_string("-9223372036854775808").to_int64(), INT64_MIN);
    EXPECT_EQ(BigInt::from_string("9223372036854775808").to_string(),
              "9223372036854775808");
    EXPECT_EQ(BigInt::from_string("-9223372036854775809").to_string(),
              "-9223372036854775809");
    EXPECT_EQ(BigInt::from_string("+5"), BigInt(5));
    EXPECT_EQ(BigInt::from_string("-0"), BigInt(0));
    EXPECT_FALSE(BigInt::from_string("-0").is_negative());
    EXPECT_EQ(BigInt::from_string("-000000000000000000000000007").to_int64(), -7);
    EXPECT_EQ(BigInt::from_string("7").is_small(), !force_big);
    EXPECT_EQ(from_string_error(""), "BigInt::from_string: empty string");
    EXPECT_EQ(from_string_error("-"), "BigInt::from_string: lone sign");
    EXPECT_EQ(from_string_error("+"), "BigInt::from_string: lone sign");
    EXPECT_EQ(from_string_error("1a"), "BigInt::from_string: non-digit character");
    EXPECT_EQ(from_string_error("--1"), "BigInt::from_string: non-digit character");
    EXPECT_EQ(from_string_error("-+1"), "BigInt::from_string: non-digit character");
    EXPECT_EQ(from_string_error("12345678901234567890x"),
              "BigInt::from_string: non-digit character");
    EXPECT_EQ(from_string_error("1 "), "BigInt::from_string: non-digit character");
  }
  BigInt::set_test_force_big(false);
  EXPECT_FALSE(BigInt::from_string("9223372036854775808").is_small());
  // Canonical representation: INT64_MIN is small however it is reached,
  // including by negating the limb value 2^63.
  EXPECT_TRUE(BigInt::from_string("-9223372036854775808").is_small());
  EXPECT_TRUE(BigInt::from_string("9223372036854775808").negated().is_small());
}

TEST(BigInt, StringRoundTripOnHugeValue) {
  std::string digits = "123456789012345678901234567890123456789012345678901234567890";
  EXPECT_EQ(BigInt::from_string(digits).to_string(), digits);
  EXPECT_EQ(BigInt::from_string("-" + digits).to_string(), "-" + digits);
}

TEST(BigInt, AdditionCarriesAcrossLimbs) {
  BigInt a = BigInt::from_string("4294967295");  // 2^32 - 1
  EXPECT_EQ((a + BigInt(1)).to_string(), "4294967296");
  BigInt b = BigInt::from_string("18446744073709551615");  // 2^64 - 1
  EXPECT_EQ((b + BigInt(1)).to_string(), "18446744073709551616");
}

TEST(BigInt, SubtractionBorrowsAndFlipsSign) {
  EXPECT_EQ((BigInt(5) - BigInt(7)).to_string(), "-2");
  EXPECT_EQ((BigInt(-5) - BigInt(-7)).to_string(), "2");
  BigInt big = BigInt::from_string("10000000000000000000000000");
  EXPECT_EQ((big - big).to_string(), "0");
  EXPECT_EQ((big - BigInt(1) - big).to_string(), "-1");
}

TEST(BigInt, MultiplicationMatchesKnownProduct) {
  BigInt a = BigInt::from_string("123456789123456789");
  BigInt b = BigInt::from_string("987654321987654321");
  EXPECT_EQ((a * b).to_string(), "121932631356500531347203169112635269");
  EXPECT_EQ((a * BigInt(0)).to_string(), "0");
  EXPECT_EQ((a * BigInt(-1)).to_string(), "-123456789123456789");
}

TEST(BigInt, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).to_int64(), 3);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).to_int64(), -3);
  EXPECT_EQ((BigInt(7) / BigInt(-2)).to_int64(), -3);
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).to_int64(), 3);
  EXPECT_EQ((BigInt(7) % BigInt(2)).to_int64(), 1);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).to_int64(), -1);
}

TEST(BigInt, DivisionByZeroThrows) {
  EXPECT_THROW((void)(BigInt(1) / BigInt(0)), std::domain_error);
  EXPECT_THROW((void)(BigInt(1) % BigInt(0)), std::domain_error);
}

TEST(BigInt, MultiLimbLongDivision) {
  BigInt numerator = BigInt::from_string("121932631356500531347203169112635269");
  BigInt denominator = BigInt::from_string("987654321987654321");
  EXPECT_EQ((numerator / denominator).to_string(), "123456789123456789");
  EXPECT_EQ((numerator % denominator).to_string(), "0");
  EXPECT_EQ(((numerator + BigInt(5)) % denominator).to_string(), "5");
}

TEST(BigInt, DivmodIdentityRandomized) {
  Xoshiro256 rng(7);
  for (int round = 0; round < 500; ++round) {
    BigInt a(rng.uniform_int(-1000000000, 1000000000));
    BigInt b(rng.uniform_int(-1000000, 1000000));
    a = a * BigInt(rng.uniform_int(1, 1000000000));  // widen beyond one limb
    if (b.is_zero()) b = BigInt(1);
    auto [q, r] = BigInt::divmod(a, b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_TRUE(r.abs() < b.abs());
    // C++ semantics: remainder carries the dividend's sign.
    if (!r.is_zero()) {
      EXPECT_EQ(r.sign(), a.sign());
    }
  }
}

TEST(BigInt, KnuthDivisionAddBackCase) {
  // Divisor with top limb just below 2^32 exercises the qhat correction path.
  BigInt numerator = BigInt::from_string("340282366920938463463374607431768211455");
  BigInt denominator = BigInt::from_string("18446744073709551615");
  auto [q, r] = BigInt::divmod(numerator, denominator);
  EXPECT_EQ(q * denominator + r, numerator);
  EXPECT_EQ(q.to_string(), "18446744073709551617");
  EXPECT_EQ(r.to_string(), "0");
}

TEST(BigInt, ComparisonTotalOrder) {
  EXPECT_LT(BigInt(-2), BigInt(-1));
  EXPECT_LT(BigInt(-1), BigInt(0));
  EXPECT_LT(BigInt(0), BigInt(1));
  EXPECT_LT(BigInt(1), BigInt::from_string("4294967296"));
  EXPECT_GT(BigInt::from_string("-1"), BigInt::from_string("-4294967296"));
  EXPECT_EQ(BigInt(5), BigInt::from_string("5"));
}

TEST(BigInt, GcdMatchesEuclid) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).to_int64(), 6);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).to_int64(), 5);
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(0)).to_int64(), 0);
  EXPECT_EQ(BigInt::gcd(BigInt::from_string("123456789123456789"),
                        BigInt::from_string("987654321987654321"))
                .to_string(),
            "9000000009");
}

TEST(BigInt, ToDoubleApproximates) {
  EXPECT_DOUBLE_EQ(BigInt(1000).to_double(), 1000.0);
  EXPECT_DOUBLE_EQ(BigInt(-1000).to_double(), -1000.0);
  EXPECT_NEAR(BigInt::from_string("1000000000000000000000").to_double(), 1e21, 1e7);
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt(0).bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ(BigInt(256).bit_length(), 9u);
  EXPECT_EQ(BigInt::from_string("4294967296").bit_length(), 33u);
}

TEST(BigInt, HashDistinguishesSign) {
  EXPECT_NE(BigInt(5).hash(), BigInt(-5).hash());
  EXPECT_EQ(BigInt(5).hash(), BigInt(5).hash());
}

TEST(BigInt, SmallValuesLiveInline) {
  EXPECT_TRUE(BigInt().is_small());
  EXPECT_TRUE(BigInt(42).is_small());
  EXPECT_TRUE(BigInt(std::numeric_limits<std::int64_t>::max()).is_small());
  EXPECT_TRUE(BigInt(std::numeric_limits<std::int64_t>::min()).is_small());
  EXPECT_EQ(BigInt(-7).small_value(), -7);
  // One past int64: promoted.
  BigInt past_max = BigInt(std::numeric_limits<std::int64_t>::max()) + BigInt(1);
  EXPECT_FALSE(past_max.is_small());
  // ... and coming back into range demotes to the inline representation.
  BigInt back = past_max - BigInt(1);
  EXPECT_TRUE(back.is_small());
  EXPECT_EQ(back.small_value(), std::numeric_limits<std::int64_t>::max());
  BigInt below_min = BigInt(std::numeric_limits<std::int64_t>::min()) - BigInt(1);
  EXPECT_FALSE(below_min.is_small());
  EXPECT_TRUE((below_min + BigInt(1)).is_small());
}

TEST(BigInt, ForceBigIsARepresentationChangeOnly) {
  for (std::int64_t v : {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
                         std::int64_t{123456789}, -(std::int64_t{1} << 40),
                         std::numeric_limits<std::int64_t>::max(),
                         std::numeric_limits<std::int64_t>::min()}) {
    BigInt small(v);
    BigInt forced(v);
    forced.force_big();
    EXPECT_FALSE(forced.is_small()) << v;
    EXPECT_EQ(small, forced) << v;
    EXPECT_EQ(forced, small) << v;
    EXPECT_EQ(small.hash(), forced.hash()) << v;
    EXPECT_EQ(small.to_string(), forced.to_string()) << v;
    EXPECT_EQ(small <=> forced, std::strong_ordering::equal) << v;
    EXPECT_EQ(forced.to_int64(), v) << v;
    EXPECT_TRUE(forced.fits_int64()) << v;
    EXPECT_EQ(small.bit_length(), forced.bit_length()) << v;
    EXPECT_EQ(small.sign(), forced.sign()) << v;
  }
  // Mixed-representation ordering across distinct values.
  BigInt two(2), three(3);
  three.force_big();
  EXPECT_LT(two, three);
  EXPECT_GT(three, two);
  BigInt minus_two(-2);
  minus_two.force_big();
  EXPECT_LT(minus_two, two);
}

TEST(BigInt, SmallVsForcedLimbPathDifferentialAtInt64Boundary) {
  // The fast path and the limb path must agree operation-for-operation on
  // operands straddling +/-2^63, where the overflow checks decide the route.
  Xoshiro256 rng(2024);
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  auto boundary_operand = [&]() -> std::int64_t {
    switch (rng.uniform_int(0, 5)) {
      case 0: return kMax - rng.uniform_int(0, 3);
      case 1: return kMin + rng.uniform_int(0, 3);
      case 2: return rng.uniform_int(-3, 3);
      case 3: return (std::int64_t{1} << 62) + rng.uniform_int(-2, 2);
      case 4: return -(std::int64_t{1} << 62) + rng.uniform_int(-2, 2);
      default: return rng.uniform_int(kMin / 2, kMax / 2);
    }
  };
  for (int round = 0; round < 2000; ++round) {
    std::int64_t x = boundary_operand();
    std::int64_t y = boundary_operand();
    BigInt a(x), b(y);
    BigInt fa(x), fb(y);
    fa.force_big();
    fb.force_big();

    EXPECT_EQ(a + b, fa + fb) << x << " + " << y;
    EXPECT_EQ(a - b, fa - fb) << x << " - " << y;
    EXPECT_EQ(a * b, fa * fb) << x << " * " << y;
    EXPECT_EQ(a <=> b, fa <=> fb) << x << " <=> " << y;
    EXPECT_EQ(BigInt::gcd(a, b), BigInt::gcd(fa, fb)) << "gcd " << x << "," << y;
    if (y != 0) {
      auto [q_small, r_small] = BigInt::divmod(a, b);
      auto [q_big, r_big] = BigInt::divmod(fa, fb);
      EXPECT_EQ(q_small, q_big) << x << " / " << y;
      EXPECT_EQ(r_small, r_big) << x << " % " << y;
      EXPECT_EQ(q_small * b + r_small, a) << x << " divmod " << y;
    }
    // Mixed representation: small op forced-big and vice versa.
    EXPECT_EQ(a + fb, fa + b) << x << " + " << y;
    EXPECT_EQ(a * fb, fa * b) << x << " * " << y;
  }
}

TEST(BigInt, SmallPathOverflowEdgeCases) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_EQ((BigInt(kMax) + BigInt(kMax)).to_string(), "18446744073709551614");
  EXPECT_EQ((BigInt(kMin) + BigInt(kMin)).to_string(), "-18446744073709551616");
  EXPECT_EQ((BigInt(kMax) - BigInt(kMin)).to_string(), "18446744073709551615");
  EXPECT_EQ((BigInt(kMin) - BigInt(kMax)).to_string(), "-18446744073709551615");
  EXPECT_EQ((BigInt(kMin) * BigInt(kMin)).to_string(),
            "85070591730234615865843651857942052864");
  // INT64_MIN / -1 is the lone divmod overflow.
  auto [q, r] = BigInt::divmod(BigInt(kMin), BigInt(-1));
  EXPECT_EQ(q.to_string(), "9223372036854775808");
  EXPECT_TRUE(r.is_zero());
  EXPECT_FALSE(q.is_small());
  // Negation at the boundary.
  EXPECT_EQ(BigInt(kMin).negated().to_string(), "9223372036854775808");
  EXPECT_EQ(BigInt(kMin).abs().to_string(), "9223372036854775808");
  // gcd involving INT64_MIN magnitudes.
  EXPECT_EQ(BigInt::gcd(BigInt(kMin), BigInt(kMin)).to_string(),
            "9223372036854775808");
  EXPECT_EQ(BigInt::gcd(BigInt(kMin), BigInt(0)).to_string(),
            "9223372036854775808");
}

TEST(BigInt, BinaryGcdU64MatchesEuclid) {
  Xoshiro256 rng(11);
  auto euclid = [](std::uint64_t a, std::uint64_t b) {
    while (b != 0) {
      std::uint64_t r = a % b;
      a = b;
      b = r;
    }
    return a;
  };
  EXPECT_EQ(BigInt::gcd_u64(0, 0), 0u);
  EXPECT_EQ(BigInt::gcd_u64(0, 7), 7u);
  EXPECT_EQ(BigInt::gcd_u64(7, 0), 7u);
  EXPECT_EQ(BigInt::gcd_u64(std::uint64_t{1} << 63, std::uint64_t{1} << 63),
            std::uint64_t{1} << 63);
  for (int round = 0; round < 2000; ++round) {
    std::uint64_t a = rng();
    std::uint64_t b = rng();
    // Mix in shared power-of-two factors, the binary algorithm's special case.
    int shift = static_cast<int>(rng.uniform_int(0, 20));
    a <<= shift;
    b <<= shift;
    EXPECT_EQ(BigInt::gcd_u64(a, b), euclid(a, b)) << a << "," << b;
  }
}

TEST(BigInt, TestForceBigModeReplaysLimbPath) {
  // The global mode promotes at construction and never demotes, so whole
  // expressions run on limbs; values must be unchanged.
  BigInt small_sum = BigInt(123456789) * BigInt(987654321) + BigInt(42);
  EXPECT_TRUE(small_sum.is_small());
  BigInt::set_test_force_big(true);
  BigInt forced_sum = BigInt(123456789) * BigInt(987654321) + BigInt(42);
  EXPECT_FALSE(forced_sum.is_small());
  BigInt::set_test_force_big(false);
  EXPECT_EQ(small_sum, forced_sum);
  EXPECT_EQ(small_sum.to_string(), forced_sum.to_string());
}

TEST(BigInt, CountersObserveSmallHitsAndPromotions) {
  NumericCounters& counters = numeric_counters();
  std::uint64_t hits_before = counters.bigint_small_hits;
  BigInt a = BigInt(1000) + BigInt(2000);
  EXPECT_TRUE(a.is_small());
  EXPECT_GT(counters.bigint_small_hits, hits_before);

  std::uint64_t promotions_before = counters.bigint_promotions;
  BigInt b = BigInt(std::numeric_limits<std::int64_t>::max()) + BigInt(1);
  EXPECT_FALSE(b.is_small());
  EXPECT_GT(counters.bigint_promotions, promotions_before);
}

TEST(BigInt, RingAxiomsRandomized) {
  Xoshiro256 rng(99);
  for (int round = 0; round < 300; ++round) {
    BigInt a(rng.uniform_int(-1'000'000'000'000, 1'000'000'000'000));
    BigInt b(rng.uniform_int(-1'000'000'000'000, 1'000'000'000'000));
    BigInt c(rng.uniform_int(-1'000'000'000'000, 1'000'000'000'000));
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, BigInt(0));
    EXPECT_EQ(a + (-a), BigInt(0));
  }
}

}  // namespace
}  // namespace mpss
