// Tests for the adversarial-instance search (S34).

#include "mpss/online/adversary_search.hpp"

#include <gtest/gtest.h>

#include "mpss/core/optimal.hpp"
#include "mpss/online/avr.hpp"
#include "mpss/online/bounds.hpp"
#include "mpss/online/oa.hpp"

namespace mpss {
namespace {

AdversaryConfig small_config() {
  AdversaryConfig config;
  config.jobs = 5;
  config.machines = 1;
  config.horizon = 10;
  config.max_work = 6;
  config.alpha = 2.0;
  config.iterations = 120;
  config.restarts = 2;
  return config;
}

TEST(AdversarySearch, DeterministicForSeed) {
  auto a = search_adversary(OnlineAlgorithmKind::kAvr, small_config(), 42);
  auto b = search_adversary(OnlineAlgorithmKind::kAvr, small_config(), 42);
  EXPECT_DOUBLE_EQ(a.ratio, b.ratio);
  EXPECT_EQ(a.instance, b.instance);
}

TEST(AdversarySearch, FindsNontrivialAvrAdversary) {
  auto result = search_adversary(OnlineAlgorithmKind::kAvr, small_config(), 7);
  EXPECT_GE(result.ratio, 1.15);  // hill climbing must beat a random instance
  EXPECT_LE(result.ratio, avr_multi_competitive_bound(2.0) + 1e-9);
  // The reported ratio is reproducible from the returned instance.
  AlphaPower p(2.0);
  EXPECT_NEAR(result.ratio,
              avr_energy(result.instance, p) / optimal_energy(result.instance, p),
              1e-9);
}

TEST(AdversarySearch, FindsNontrivialOaAdversary) {
  auto result = search_adversary(OnlineAlgorithmKind::kOa, small_config(), 5);
  EXPECT_GT(result.ratio, 1.05);
  EXPECT_LE(result.ratio, oa_competitive_bound(2.0) + 1e-9);
  AlphaPower p(2.0);
  EXPECT_NEAR(result.ratio,
              oa_energy(result.instance, p) / optimal_energy(result.instance, p),
              1e-9);
}

TEST(AdversarySearch, InstancesStayValidAndIntegral) {
  auto result = search_adversary(OnlineAlgorithmKind::kAvr, small_config(), 11);
  EXPECT_TRUE(result.instance.has_integral_times());
  EXPECT_EQ(result.instance.size(), 5u);
  for (const Job& job : result.instance.jobs()) {
    EXPECT_LT(job.release, job.deadline);
    EXPECT_GE(job.release, Q(0));
    EXPECT_LE(job.deadline, Q(10));
    EXPECT_GE(job.work, Q(1));
    EXPECT_LE(job.work, Q(6));
  }
  EXPECT_GE(result.evaluations, 120u);
}

TEST(AdversarySearch, MoreIterationsNeverHurt) {
  AdversaryConfig shorter = small_config();
  shorter.iterations = 20;
  shorter.restarts = 1;
  AdversaryConfig longer = small_config();
  longer.iterations = 200;
  longer.restarts = 1;
  // Same seed: the longer run extends the same trajectory, so its best ratio is
  // at least the shorter run's.
  auto a = search_adversary(OnlineAlgorithmKind::kAvr, shorter, 3);
  auto b = search_adversary(OnlineAlgorithmKind::kAvr, longer, 3);
  EXPECT_GE(b.ratio, a.ratio - 1e-12);
}

TEST(AdversarySearch, RejectsDegenerateConfig) {
  AdversaryConfig bad = small_config();
  bad.jobs = 0;
  EXPECT_THROW((void)search_adversary(OnlineAlgorithmKind::kOa, bad, 1),
               std::invalid_argument);
  bad = small_config();
  bad.alpha = 1.0;
  EXPECT_THROW((void)search_adversary(OnlineAlgorithmKind::kOa, bad, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace mpss
