// Unit and property tests for exact rationals (S2) -- the scalar type of the
// entire scheduling core.

#include "mpss/util/rational.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "mpss/util/numeric_counters.hpp"
#include "mpss/util/random.hpp"

namespace mpss {
namespace {

TEST(Rational, DefaultIsZero) {
  Q zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_TRUE(zero.is_integer());
  EXPECT_EQ(zero.to_string(), "0");
}

TEST(Rational, NormalizesOnConstruction) {
  Q half(2, 4);
  EXPECT_EQ(half.num(), BigInt(1));
  EXPECT_EQ(half.den(), BigInt(2));
  Q negative(3, -6);
  EXPECT_EQ(negative.num(), BigInt(-1));
  EXPECT_EQ(negative.den(), BigInt(2));
  Q zero(0, 17);
  EXPECT_EQ(zero.den(), BigInt(1));
}

TEST(Rational, ZeroDenominatorThrows) {
  EXPECT_THROW((void)Q(1, 0), std::domain_error);
}

TEST(Rational, ArithmeticStaysExact) {
  Q third(1, 3);
  EXPECT_EQ(third + third + third, Q(1));
  EXPECT_EQ(Q(1, 6) + Q(1, 10), Q(4, 15));
  EXPECT_EQ(Q(1, 2) - Q(1, 3), Q(1, 6));
  EXPECT_EQ(Q(2, 3) * Q(3, 4), Q(1, 2));
  EXPECT_EQ(Q(2, 3) / Q(4, 9), Q(3, 2));
}

TEST(Rational, DivisionByZeroThrows) {
  EXPECT_THROW((void)(Q(1) / Q(0)), std::domain_error);
  EXPECT_THROW((void)Q(0).inverse(), std::domain_error);
}

TEST(Rational, ComparisonCrossMultiplies) {
  EXPECT_LT(Q(1, 3), Q(1, 2));
  EXPECT_LT(Q(-1, 2), Q(-1, 3));
  EXPECT_LT(Q(-1), Q(1, 1000000));
  EXPECT_EQ(Q(2, 4), Q(1, 2));
  EXPECT_GT(Q(7, 3), Q(2));
}

TEST(Rational, MinMaxHelpers) {
  EXPECT_EQ(min(Q(1, 3), Q(1, 2)), Q(1, 3));
  EXPECT_EQ(max(Q(1, 3), Q(1, 2)), Q(1, 2));
  EXPECT_EQ(min(Q(5), Q(5)), Q(5));
}

TEST(Rational, FloorCeil) {
  EXPECT_EQ(Q(7, 2).floor(), BigInt(3));
  EXPECT_EQ(Q(7, 2).ceil(), BigInt(4));
  EXPECT_EQ(Q(-7, 2).floor(), BigInt(-4));
  EXPECT_EQ(Q(-7, 2).ceil(), BigInt(-3));
  EXPECT_EQ(Q(4).floor(), BigInt(4));
  EXPECT_EQ(Q(4).ceil(), BigInt(4));
}

TEST(Rational, FromStringParsesBothForms) {
  EXPECT_EQ(Q::from_string("5"), Q(5));
  EXPECT_EQ(Q::from_string("-5"), Q(-5));
  EXPECT_EQ(Q::from_string("10/4"), Q(5, 2));
  EXPECT_EQ(Q::from_string("-10/4"), Q(-5, 2));
  EXPECT_THROW((void)Q::from_string("1/0"), std::domain_error);
  EXPECT_THROW((void)Q::from_string("a/b"), std::invalid_argument);
}

TEST(Rational, ToStringRoundTrip) {
  for (const char* text : {"0", "5", "-5", "1/3", "-22/7", "123456789/987654321"}) {
    EXPECT_EQ(Q::from_string(text).to_string(),
              Q::from_string(text).to_string());  // stable
    EXPECT_EQ(Q::from_string(Q::from_string(text).to_string()), Q::from_string(text));
  }
}

TEST(Rational, ToDouble) {
  EXPECT_DOUBLE_EQ(Q(1, 2).to_double(), 0.5);
  EXPECT_DOUBLE_EQ(Q(-3, 4).to_double(), -0.75);
  EXPECT_NEAR(Q(1, 3).to_double(), 0.333333333333, 1e-12);
}

TEST(Rational, AbsNegateInverse) {
  EXPECT_EQ(Q(-5, 3).abs(), Q(5, 3));
  EXPECT_EQ(-Q(5, 3), Q(-5, 3));
  EXPECT_EQ(Q(5, 3).inverse(), Q(3, 5));
  EXPECT_EQ(Q(-5, 3).inverse(), Q(-3, 5));
}

TEST(Rational, SignReporting) {
  EXPECT_EQ(Q(3, 7).sign(), 1);
  EXPECT_EQ(Q(-3, 7).sign(), -1);
  EXPECT_EQ(Q(0).sign(), 0);
}

TEST(Rational, FieldAxiomsRandomized) {
  Xoshiro256 rng(1234);
  auto random_q = [&rng] {
    return Q(rng.uniform_int(-1000, 1000), rng.uniform_int(1, 1000));
  };
  for (int round = 0; round < 300; ++round) {
    Q a = random_q();
    Q b = random_q();
    Q c = random_q();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) * c, a * c + b * c);
    EXPECT_EQ(a - b + b, a);
    if (!b.is_zero()) {
      EXPECT_EQ(a / b * b, a);
    }
    // Order compatibility: a < b implies a + c < b + c.
    if (a < b) {
      EXPECT_LT(a + c, b + c);
    }
  }
}

TEST(Rational, DenominatorGrowthStaysCanonical) {
  // Sum of 1/k for k = 1..30 has a known canonical denominator; verify gcd
  // normalization keeps the representation canonical along the way.
  Q sum;
  for (int k = 1; k <= 30; ++k) sum += Q(1, k);
  EXPECT_EQ(BigInt::gcd(sum.num(), sum.den()), BigInt(1));
  EXPECT_EQ(sum, Q(BigInt::from_string("9304682830147"),
                   BigInt::from_string("2329089562800")));
}

TEST(Rational, SmallNormalizationStaysAllocationFreeAndCanonical) {
  NumericCounters& counters = numeric_counters();
  std::uint64_t before = counters.rational_norm_small;
  Q value(6, -10);
  EXPECT_GT(counters.rational_norm_small, before);
  EXPECT_EQ(value.num(), BigInt(-3));
  EXPECT_EQ(value.den(), BigInt(5));
  EXPECT_TRUE(value.num().is_small());
  EXPECT_TRUE(value.den().is_small());
}

TEST(Rational, Int64MinOperandsFallBackToTheGeneralPath) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  Q a(kMin, 2);
  EXPECT_EQ(a.num(), BigInt(kMin / 2));
  EXPECT_EQ(a.den(), BigInt(1));
  Q b(1, kMin);  // negative denominator of magnitude 2^63
  EXPECT_EQ(b.num(), BigInt(-1));
  EXPECT_EQ(b.den().to_string(), "9223372036854775808");
  Q c(kMin, kMin);
  EXPECT_EQ(c, Q(1));
}

TEST(Rational, SmallVsForcedLimbArithmeticDifferential) {
  // Rational arithmetic over forced-big components must agree bit-for-bit with
  // the small path: same canonical numerator/denominator, same hash.
  Xoshiro256 rng(77);
  auto forced = [](const Q& q) {
    BigInt num = q.num();
    BigInt den = q.den();
    num.force_big();
    den.force_big();
    return Q(std::move(num), std::move(den));
  };
  for (int round = 0; round < 500; ++round) {
    Q a(rng.uniform_int(-1'000'000, 1'000'000), rng.uniform_int(1, 1'000'000));
    Q b(rng.uniform_int(-1'000'000, 1'000'000), rng.uniform_int(1, 1'000'000));
    Q fa = forced(a);
    Q fb = forced(b);
    EXPECT_EQ(a + b, fa + fb);
    EXPECT_EQ(a - b, fa - fb);
    EXPECT_EQ(a * b, fa * fb);
    if (!b.is_zero()) {
      EXPECT_EQ(a / b, fa / fb);
    }
    EXPECT_EQ(a <=> b, fa <=> fb);
    EXPECT_EQ((a + b).hash(), (fa + fb).hash());
  }
}

TEST(Rational, HashConsistentWithEquality) {
  EXPECT_EQ(Q(2, 4).hash(), Q(1, 2).hash());
  EXPECT_NE(Q(1, 2).hash(), Q(1, 3).hash());
}

}  // namespace
}  // namespace mpss
