// Tests for the paper's offline optimal algorithm (Section 2 / Theorem 1).
// The strongest checks are the oracles: YDS equality at m = 1 and the LP baseline
// bracketing at m > 1 (test_lp_baseline.cpp covers the latter).

#include "mpss/core/optimal.hpp"

#include <gtest/gtest.h>

#include "mpss/core/yds.hpp"
#include "mpss/workload/generators.hpp"

namespace mpss {
namespace {

TEST(Optimal, SingleJobRunsAtDensity) {
  Instance instance({Job{Q(0), Q(4), Q(8)}}, 3);
  auto result = optimal_schedule(instance);
  ASSERT_EQ(result.phases.size(), 1u);
  EXPECT_EQ(result.phases[0].speed, Q(2));
  EXPECT_EQ(result.speed_of_job(0), Q(2));
  EXPECT_TRUE(check_schedule(instance, result.schedule).feasible);
}

TEST(Optimal, EmptyAndZeroWorkInstances) {
  Instance empty({}, 2);
  auto result = optimal_schedule(empty);
  EXPECT_EQ(result.schedule.slice_count(), 0u);
  EXPECT_EQ(result.phases.size(), 0u);

  Instance zero({Job{Q(0), Q(5), Q(0)}, Job{Q(1), Q(2), Q(0)}}, 2);
  auto zero_result = optimal_schedule(zero);
  EXPECT_EQ(zero_result.schedule.slice_count(), 0u);
  EXPECT_EQ(zero_result.speed_of_job(0), Q(0));
  EXPECT_TRUE(check_schedule(zero, zero_result.schedule).feasible);
}

TEST(Optimal, TwoIdenticalJobsTwoMachines) {
  // Each machine takes one job at its density; one phase, speed 1.
  Instance instance({Job{Q(0), Q(2), Q(2)}, Job{Q(0), Q(2), Q(2)}}, 2);
  auto result = optimal_schedule(instance);
  ASSERT_EQ(result.phases.size(), 1u);
  EXPECT_EQ(result.phases[0].speed, Q(1));
  EXPECT_TRUE(check_schedule(instance, result.schedule).feasible);
  AlphaPower p(3.0);
  EXPECT_NEAR(result.schedule.energy(p), 4.0, 1e-12);  // 2 machines * 1^3 * 2
}

TEST(Optimal, MoreJobsThanMachinesSharesCapacity) {
  // 3 identical unit-window jobs, 2 machines: uniform speed 3/2 over [0,1).
  Instance instance({Job{Q(0), Q(1), Q(1)}, Job{Q(0), Q(1), Q(1)},
                     Job{Q(0), Q(1), Q(1)}}, 2);
  auto result = optimal_schedule(instance);
  ASSERT_EQ(result.phases.size(), 1u);
  EXPECT_EQ(result.phases[0].speed, Q(3, 2));
  EXPECT_TRUE(check_schedule(instance, result.schedule).feasible);
}

TEST(Optimal, DisjointEqualDensityJobsFormOnePhase) {
  // Same speed, non-overlapping windows -> a single phase at speed 1 even on m=1.
  Instance instance({Job{Q(0), Q(1), Q(1)}, Job{Q(1), Q(2), Q(1)}}, 1);
  auto result = optimal_schedule(instance);
  ASSERT_EQ(result.phases.size(), 1u);
  EXPECT_EQ(result.phases[0].speed, Q(1));
  EXPECT_EQ(result.phases[0].jobs.size(), 2u);
}

TEST(Optimal, TwoSpeedLevels) {
  // Dense short job forces a fast phase; the long sparse job forms a slow phase.
  Instance instance({Job{Q(0), Q(6), Q(3)}, Job{Q(2), Q(3), Q(3)}}, 1);
  auto result = optimal_schedule(instance);
  ASSERT_EQ(result.phases.size(), 2u);
  EXPECT_EQ(result.phases[0].speed, Q(3));
  EXPECT_EQ(result.phases[1].speed, Q(3, 5));
  EXPECT_LT(result.phases[1].speed, result.phases[0].speed);
  EXPECT_TRUE(check_schedule(instance, result.schedule).feasible);
}

TEST(Optimal, MatchesYdsOnSingleMachine) {
  // Oracle test: for m = 1, both algorithms are optimal, so the energies must be
  // exactly equal (both run each job at one constant rational speed).
  AlphaPower p(2.5);
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Instance instance = generate_uniform({.jobs = 8, .machines = 1, .horizon = 16,
                                          .max_window = 8, .max_work = 6}, seed);
    auto flow_result = optimal_schedule(instance);
    auto yds_result = yds_schedule(instance);
    ASSERT_TRUE(check_schedule(instance, flow_result.schedule).feasible) << seed;
    EXPECT_NEAR(flow_result.schedule.energy(p), yds_result.schedule.energy(p),
                1e-9 * (1.0 + yds_result.schedule.energy(p)))
        << "seed " << seed;
    // Stronger: per-job speeds agree exactly.
    for (std::size_t k = 0; k < instance.size(); ++k) {
      EXPECT_EQ(flow_result.speed_of_job(k), yds_result.job_speed[k])
          << "seed " << seed << " job " << k;
    }
  }
}

TEST(Optimal, EnergyMonotoneInMachineCount) {
  // More processors can only help (the m-machine schedule embeds in m+1).
  AlphaPower p(3.0);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Instance base = generate_uniform({.jobs = 10, .machines = 1, .horizon = 15,
                                      .max_window = 8, .max_work = 5}, seed);
    double previous = std::numeric_limits<double>::infinity();
    for (std::size_t m : {1u, 2u, 3u, 5u}) {
      double energy = optimal_energy(base.with_machines(m), p);
      EXPECT_LE(energy, previous * (1 + 1e-12)) << "seed " << seed << " m " << m;
      previous = energy;
    }
  }
}

TEST(Optimal, ManyMachinesGiveEveryJobItsDensity) {
  // With m >= n every job can run on its own processor; optimal speed is its
  // density (lower is impossible: less work than w_k would complete).
  Instance instance({Job{Q(0), Q(4), Q(2)}, Job{Q(1), Q(3), Q(4)}, Job{Q(0), Q(8), Q(1)}},
                    5);
  auto result = optimal_schedule(instance);
  EXPECT_EQ(result.speed_of_job(0), Q(1, 2));
  EXPECT_EQ(result.speed_of_job(1), Q(2));
  EXPECT_EQ(result.speed_of_job(2), Q(1, 8));
  EXPECT_TRUE(check_schedule(instance, result.schedule).feasible);
}

TEST(Optimal, ParallelBatchClosedForm) {
  // slots * m unit jobs per slot: every machine runs at speed w everywhere.
  for (std::size_t m : {1u, 2u, 4u}) {
    Instance instance = generate_parallel_batch(3, m, 5);
    auto result = optimal_schedule(instance);
    ASSERT_EQ(result.phases.size(), 1u);
    EXPECT_EQ(result.phases[0].speed, Q(5));
    EXPECT_TRUE(check_schedule(instance, result.schedule).feasible);
    AlphaPower p(2.0);
    EXPECT_NEAR(result.schedule.energy(p), 25.0 * 3.0 * static_cast<double>(m), 1e-9);
  }
}

TEST(Optimal, PhaseSpeedsStrictlyDecrease) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Instance instance = generate_laminar({.jobs = 15, .machines = 2, .depth = 4,
                                          .max_work = 10}, seed);
    auto result = optimal_schedule(instance);
    for (std::size_t i = 1; i < result.phases.size(); ++i) {
      EXPECT_LT(result.phases[i].speed, result.phases[i - 1].speed) << "seed " << seed;
    }
  }
}

TEST(Optimal, RationalTimesAndWorks) {
  Instance instance({Job{Q(0), Q(1, 2), Q(2, 3)}, Job{Q(1, 3), Q(5, 6), Q(1, 7)}}, 2);
  auto result = optimal_schedule(instance);
  EXPECT_TRUE(check_schedule(instance, result.schedule).feasible);
}

TEST(Optimal, FlowComputationCountIsPolynomial) {
  // Sanity guard: never more than one removal round per job per phase, so at most
  // n + n^2 flow computations overall.
  Instance instance = generate_uniform({.jobs = 20, .machines = 3, .horizon = 30,
                                        .max_window = 12, .max_work = 8}, 5);
  auto result = optimal_schedule(instance);
  EXPECT_LE(result.stats.flow_computations,
            instance.size() * instance.size() + instance.size());
  EXPECT_GE(result.stats.flow_computations, result.phases.size());
}

TEST(Optimal, SpeedOfUnknownJobIsZero) {
  Instance instance({Job{Q(0), Q(1), Q(1)}}, 1);
  auto result = optimal_schedule(instance);
  EXPECT_EQ(result.speed_of_job(17), Q(0));
}

}  // namespace
}  // namespace mpss
