// Tests for the xoshiro256** PRNG substrate.

#include "mpss/util/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <utility>

namespace mpss {
namespace {

TEST(Random, DeterministicForSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Random, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Random, BelowRespectsBound) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
  // Small bounds hit every residue.
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Random, UniformIntInclusiveRange) {
  Xoshiro256 rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, UniformIntWideRangesDoNotOverflow) {
  // hi - lo exceeds INT64_MAX on both ranges; uniform_int must neither overflow
  // (a UBSan finding) nor leave [lo, hi].
  Xoshiro256 rng(29);
  const std::int64_t int64_min = std::numeric_limits<std::int64_t>::min();
  const std::int64_t int64_max = std::numeric_limits<std::int64_t>::max();
  const std::int64_t two_62 = std::int64_t{1} << 62;
  for (auto [lo, hi] : {std::pair{int64_min, int64_max}, std::pair{-two_62, two_62}}) {
    bool saw_negative = false, saw_positive = false;
    for (int i = 0; i < 2000; ++i) {
      std::int64_t v = rng.uniform_int(lo, hi);
      EXPECT_GE(v, lo);
      EXPECT_LE(v, hi);
      saw_negative |= v < 0;
      saw_positive |= v > 0;
    }
    EXPECT_TRUE(saw_negative) << lo << ".." << hi;
    EXPECT_TRUE(saw_positive) << lo << ".." << hi;
  }
}

TEST(Random, Uniform01InHalfOpenRange) {
  Xoshiro256 rng(13);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.uniform01();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);  // law of large numbers sanity
}

TEST(Random, BernoulliMatchesProbability) {
  Xoshiro256 rng(17);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  Xoshiro256 rng2(18);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng2.bernoulli(0.0));
    EXPECT_TRUE(rng2.bernoulli(1.0));
  }
}

TEST(Random, PermutationIsAPermutation) {
  Xoshiro256 rng(19);
  auto perm = rng.permutation(50);
  ASSERT_EQ(perm.size(), 50u);
  std::vector<std::size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(sorted[i], i);
  // Not the identity with overwhelming probability.
  auto other = rng.permutation(50);
  EXPECT_NE(perm, other);
}

TEST(Random, JumpCreatesDisjointStream) {
  Xoshiro256 a(23);
  Xoshiro256 b(23);
  b.jump();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

}  // namespace
}  // namespace mpss
