// Tests for the optimality certificate (S49, core/certify.hpp). Positive
// control: every exact-engine schedule certifies, on generated instances of six
// families with a third of them rescaled to non-integral times and works.
// Negative control: hand-built feasible-but-suboptimal schedules fail with the
// condition they break, and no OA or AVR schedule above the optimum passes.

#include "mpss/core/certify.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "corpus.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/online/avr.hpp"
#include "mpss/online/oa.hpp"

namespace mpss {
namespace {

/// Fails the test with the certificate's message when `schedule` does not certify.
void expect_certified(const Instance& instance, const Schedule& schedule,
                      const std::string& tag) {
  std::optional<std::string> failure = certify_optimal(instance, schedule);
  EXPECT_FALSE(failure.has_value()) << tag << ": " << *failure;
}

/// The certificate's message for a schedule that must fail it ("" if it passed).
std::string failure_of(const Instance& instance, const Schedule& schedule) {
  return certify_optimal(instance, schedule).value_or("");
}

TEST(Certify, HandBuiltTwoJobScheduleThatIsFeasibleButNotOptimalFails) {
  // Two unit-work jobs sharing [0,2) on one machine: the optimum runs both at
  // speed 1. This schedule is feasible but runs them at 2 and 2/3, so no single
  // threshold separates the two partial jobs.
  Instance instance({Job{Q(0), Q(2), Q(1)}, Job{Q(0), Q(2), Q(1)}}, 1);
  Schedule worse(1);
  worse.add(0, Slice{Q(0), Q(1, 2), Q(2), 0});
  worse.add(0, Slice{Q(1, 2), Q(2), Q(2, 3), 1});
  ASSERT_TRUE(check_schedule(instance, worse).feasible);
  EXPECT_EQ(failure_of(instance, worse),
            "no threshold speed in interval [0,2): job 0 runs 1/2 of it at speed 2 "
            "(threshold >= 2), but job 1 runs 3/2 of it at speed 2/3 "
            "(threshold <= 2/3)");

  Schedule optimal(1);
  optimal.add(0, Slice{Q(0), Q(1), Q(1), 0});
  optimal.add(0, Slice{Q(1), Q(2), Q(1), 1});
  expect_certified(instance, optimal, "hand-built optimum");
  expect_certified(instance, optimal_schedule(instance).schedule, "engine");
}

TEST(Certify, NamesEachFailedCondition) {
  // Infeasible: job 0 gets half its work.
  Instance single({Job{Q(0), Q(2), Q(2)}}, 2);
  Schedule short_of_work(2);
  short_of_work.add(0, Slice{Q(0), Q(1), Q(1), 0});
  EXPECT_EQ(failure_of(single, short_of_work),
            "infeasible: job 0 received work 1 != required 2");

  // Two speeds for one job (Lemma 1 broken).
  Schedule two_speeds(2);
  two_speeds.add(0, Slice{Q(0), Q(1), Q(3, 2), 0});
  two_speeds.add(0, Slice{Q(1), Q(2), Q(1, 2), 0});
  EXPECT_EQ(failure_of(single, two_speeds), "job 0 runs at two speeds, 3/2 and 1/2");

  // Idle capacity while an active job could run longer (and slower).
  Schedule rushed(2);
  rushed.add(0, Slice{Q(0), Q(1), Q(2), 0});
  EXPECT_EQ(failure_of(single, rushed),
            "idle capacity in interval [0,2): it is busy for 1 of 4, yet active job 0 "
            "runs 1 of it at speed 2");

  // A fast job idles in [0,1) while a slow one fills it.
  Instance pair({Job{Q(0), Q(2), Q(3)}, Job{Q(0), Q(1), Q(1, 2)}}, 1);
  Schedule inverted(1);
  inverted.add(0, Slice{Q(0), Q(1), Q(1, 2), 1});
  inverted.add(0, Slice{Q(1), Q(2), Q(3), 0});
  EXPECT_EQ(failure_of(pair, inverted),
            "no threshold speed in interval [0,1): job 0 does not run in it at speed 3 "
            "(threshold >= 3), but job 1 runs all of it at speed 1/2 (threshold <= 1/2)");
}

TEST(Certify, ZeroWorkJobsAndEmptyInstancesCertify) {
  Instance empty({}, 2);
  expect_certified(empty, Schedule(2), "empty");
  // A zero-work job is never active, so the idle capacity beside it is fine.
  Instance zero({Job{Q(0), Q(4), Q(0)}, Job{Q(0), Q(4), Q(2)}}, 2);
  expect_certified(zero, optimal_schedule(zero).schedule, "zero-work job");
}

TEST(Certify, EveryExactEngineScheduleCertifies) {
  for (std::uint64_t seed = 1; seed <= corpus::kGeneratedCount; ++seed) {
    Instance instance = corpus::generated(seed);
    expect_certified(instance, optimal_schedule(instance).schedule,
                     "seed " + std::to_string(seed));
  }
}

TEST(Certify, NoOnlineScheduleAboveTheOptimumCertifies) {
  // OA and AVR are optimal only by accident, so they are the natural negative
  // control: any schedule of theirs that costs more than the optimum under
  // P(s) = s^3 must fail the certificate. AVR needs integral times, so the
  // rescaled instances run OA only.
  AlphaPower cube(3.0);
  std::size_t above_optimum = 0;
  for (std::uint64_t seed = 1; seed <= 144; ++seed) {
    Instance instance = corpus::generated(seed);
    if (instance.size() > 10) continue;
    const double optimum = optimal_schedule(instance).schedule.energy(cube);
    auto check = [&](const Schedule& schedule, const char* engine) {
      if (schedule.energy(cube) <= optimum * (1.0 + 1e-9)) return;
      ++above_optimum;
      EXPECT_TRUE(certify_optimal(instance, schedule).has_value())
          << engine << " seed " << seed << " is above the optimum but certified";
    };
    check(oa_schedule(instance).schedule, "oa");
    if (seed % 3 != 0) check(avr_schedule(instance).schedule, "avr");
  }
  EXPECT_GE(above_optimum, 50u) << "too few suboptimal online schedules to test against";
}

}  // namespace
}  // namespace mpss
