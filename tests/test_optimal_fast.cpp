// Tests for the double-precision fast path: it must track the exact engine's
// energy closely and produce (tolerance-)feasible schedules.

#include "mpss/core/optimal_fast.hpp"

#include <gtest/gtest.h>

#include "corpus.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/workload/generators.hpp"
#include "mpss/workload/transform.hpp"

namespace mpss {
namespace {

TEST(OptimalFast, SingleJob) {
  Instance instance({Job{Q(0), Q(4), Q(8)}}, 2);
  auto fast = optimal_schedule_fast(instance);
  ASSERT_EQ(fast.phase_speeds.size(), 1u);
  EXPECT_NEAR(fast.phase_speeds[0], 2.0, 1e-12);
  EXPECT_EQ(count_fast_violations(instance, fast.schedule), 0u);
  EXPECT_NEAR(fast.schedule.work_on(0), 8.0, 1e-9);
}

TEST(OptimalFast, MatchesExactEngineEnergy) {
  AlphaPower p(2.5);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Instance instance = generate_uniform({.jobs = 12, .machines = 3, .horizon = 20,
                                          .max_window = 9, .max_work = 7}, seed);
    double exact = optimal_energy(instance, p);
    auto fast = optimal_schedule_fast(instance);
    EXPECT_NEAR(fast.schedule.energy(p), exact, 1e-6 * exact) << seed;
    EXPECT_EQ(count_fast_violations(instance, fast.schedule), 0u) << seed;
  }
}

TEST(OptimalFast, MatchesExactPhaseStructure) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Instance instance = generate_laminar({.jobs = 10, .machines = 2, .depth = 3,
                                          .max_work = 6}, seed);
    auto exact = optimal_schedule(instance);
    auto fast = optimal_schedule_fast(instance);
    ASSERT_EQ(fast.phase_speeds.size(), exact.phases.size()) << seed;
    for (std::size_t i = 0; i < exact.phases.size(); ++i) {
      EXPECT_NEAR(fast.phase_speeds[i], exact.phases[i].speed.to_double(),
                  1e-9 * (1.0 + exact.phases[i].speed.to_double()))
          << seed << " phase " << i;
    }
    // The partition the exact engine takes as its phase hint.
    EXPECT_EQ(fast.job_phase, exact.job_phase) << seed;
  }
}

TEST(OptimalFast, PhaseSpeedsDescend) {
  Instance instance = generate_laminar({.jobs = 14, .machines = 2, .depth = 4,
                                        .max_work = 9}, 3);
  auto fast = optimal_schedule_fast(instance);
  for (std::size_t i = 1; i < fast.phase_speeds.size(); ++i) {
    EXPECT_LT(fast.phase_speeds[i], fast.phase_speeds[i - 1] * (1.0 + 1e-9));
  }
}

TEST(OptimalFast, FractionalTimes) {
  Instance instance({Job{Q(0), Q(1, 2), Q(2, 3)}, Job{Q(1, 3), Q(5, 6), Q(1, 7)}}, 2);
  auto fast = optimal_schedule_fast(instance);
  EXPECT_EQ(count_fast_violations(instance, fast.schedule), 0u);
  AlphaPower p(2.0);
  EXPECT_NEAR(fast.schedule.energy(p), optimal_energy(instance, p),
              1e-9 * (1.0 + optimal_energy(instance, p)));
}

TEST(OptimalFast, EmptyAndZeroWork) {
  Instance empty({}, 2);
  EXPECT_EQ(optimal_schedule_fast(empty).schedule.slice_count(), 0u);
  Instance zero({Job{Q(0), Q(3), Q(0)}}, 1);
  auto fast = optimal_schedule_fast(zero);
  EXPECT_EQ(fast.schedule.slice_count(), 0u);
  EXPECT_EQ(count_fast_violations(zero, fast.schedule), 0u);
  EXPECT_EQ(fast.job_phase, std::vector<std::size_t>{FastOptimalResult::kNoPhase});
}

TEST(OptimalFast, RejectsBadEpsilon) {
  Instance instance({Job{Q(0), Q(1), Q(1)}}, 1);
  EXPECT_THROW((void)optimal_schedule_fast(instance, FastOptimalOptions{.epsilon = 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)optimal_schedule_fast(instance, FastOptimalOptions{.epsilon = 0.5}),
               std::invalid_argument);
}

TEST(OptimalFast, RejectsAWindowThatVanishesInDoubles) {
  // [1, 1 + 1e-20) converts to [1, 1): a typed input error, not an internal one.
  try {
    (void)optimal_schedule_fast(corpus::vanishing_window());
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(),
                 "optimal_schedule_fast: job 0's window is empty in double precision");
  }
}

TEST(OptimalFast, TinyEpsilonStaysOnReservedMachines) {
  // Regression: with epsilon below the packer's 1e-12 wrap rounding, the wrap
  // once ran past the interval's last reserved machine and wrote beyond the
  // machine list (a heap overflow reachable through fast_epsilon on the wire).
  struct Case {
    std::size_t jobs;
    std::uint64_t seed;
    double epsilon;
  };
  for (const Case& c : {Case{24, 142, 1e-14}, Case{16, 58, 1e-15}}) {
    Instance instance = scale_work(
        scale_time(generate_uniform({.jobs = c.jobs, .machines = 2, .horizon = 48,
                                     .max_window = 12, .max_work = 9},
                                    c.seed),
                   Q(1009, 997)),
        Q(101, 103));
    auto fast = optimal_schedule_fast(instance, FastOptimalOptions{.epsilon = c.epsilon});
    EXPECT_EQ(count_fast_violations(instance, fast.schedule), 0u) << c.seed;
  }
}

TEST(OptimalFast, NoDegenerateSlicesOnLargeHorizons) {
  // Regression: at large absolute times the ulp exceeds sub-rounding wrap
  // remainders, which once produced a zero-length slice overlapping its
  // neighbour (n=64, m=2, seed 7 was the witness).
  Instance instance = generate_uniform({.jobs = 64, .machines = 2, .horizon = 128,
                                        .max_window = 12, .max_work = 9}, 7);
  auto fast = optimal_schedule_fast(instance);
  EXPECT_EQ(count_fast_violations(instance, fast.schedule), 0u);
  for (const auto& machine : fast.schedule.machines) {
    for (const FastSlice& slice : machine) {
      EXPECT_LT(slice.start, slice.end);
    }
  }
}

TEST(OptimalFast, ViolationCounterCatchesBadSchedules) {
  Instance instance({Job{Q(0), Q(2), Q(2)}}, 1);
  FastSchedule bogus;
  bogus.machines.resize(1);
  bogus.machines[0].push_back(FastSlice{0.0, 3.0, 1.0, 0});  // past deadline, wrong work
  EXPECT_GT(count_fast_violations(instance, bogus), 0u);
  FastSchedule overlap;
  overlap.machines.resize(1);
  overlap.machines[0].push_back(FastSlice{0.0, 1.5, 1.0, 0});
  overlap.machines[0].push_back(FastSlice{1.0, 1.5, 1.0, 0});  // machine overlap
  EXPECT_GT(count_fast_violations(instance, overlap), 0u);
}

}  // namespace
}  // namespace mpss
