// Tests for the workload generators (S17).

#include "mpss/workload/generators.hpp"

#include <gtest/gtest.h>

#include "mpss/core/optimal.hpp"

namespace mpss {
namespace {

TEST(Workload, UniformShapeAndDeterminism) {
  UniformWorkload config{.jobs = 25, .machines = 4, .horizon = 40, .max_window = 10,
                         .max_work = 7};
  Instance a = generate_uniform(config, 42);
  Instance b = generate_uniform(config, 42);
  Instance c = generate_uniform(config, 43);
  EXPECT_EQ(a.size(), 25u);
  EXPECT_EQ(a.machines(), 4u);
  EXPECT_EQ(a, b);  // same seed, same instance
  EXPECT_NE(a, c);
  EXPECT_TRUE(a.has_integral_times());
  for (const Job& job : a.jobs()) {
    EXPECT_GE(job.release, Q(0));
    EXPECT_LE(job.deadline, Q(40));
    EXPECT_LE(job.window(), Q(10));
    EXPECT_GE(job.work, Q(1));
    EXPECT_LE(job.work, Q(7));
  }
}

TEST(Workload, BurstyReleasesCluster) {
  BurstyWorkload config{.bursts = 4, .jobs_per_burst = 5, .machines = 2,
                        .horizon = 40, .burst_window = 6, .max_work = 5};
  Instance instance = generate_bursty(config, 7);
  EXPECT_EQ(instance.size(), 20u);
  // At most `bursts` distinct release times.
  std::set<std::string> releases;
  for (const Job& job : instance.jobs()) releases.insert(job.release.to_string());
  EXPECT_LE(releases.size(), 4u);
}

TEST(Workload, LaminarWindowsNest) {
  Instance instance = generate_laminar({.jobs = 30, .machines = 2, .depth = 3,
                                        .max_work = 5}, 11);
  // Any two windows either nest or are disjoint.
  for (const Job& a : instance.jobs()) {
    for (const Job& b : instance.jobs()) {
      bool disjoint = a.deadline <= b.release || b.deadline <= a.release;
      bool a_in_b = b.release <= a.release && a.deadline <= b.deadline;
      bool b_in_a = a.release <= b.release && b.deadline <= a.deadline;
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << "[" << a.release << "," << a.deadline << ") vs [" << b.release << ","
          << b.deadline << ")";
    }
  }
}

TEST(Workload, AgreeableOrderPreserved) {
  Instance instance = generate_agreeable({.jobs = 20, .machines = 3, .horizon = 30,
                                          .min_window = 2, .max_window = 8,
                                          .max_work = 5}, 13);
  // Sorted by release, deadlines must be non-decreasing.
  std::vector<Job> jobs = instance.jobs();
  std::sort(jobs.begin(), jobs.end(),
            [](const Job& a, const Job& b) { return a.release < b.release; });
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    EXPECT_LE(jobs[i - 1].deadline, jobs[i].deadline);
  }
}

TEST(Workload, PeriodicJobsTileThePeriods) {
  Instance instance = generate_periodic({.tasks = 3, .machines = 2,
                                         .hyperperiods = 2, .max_work = 4}, 17);
  EXPECT_GT(instance.size(), 6u);  // at least one job per task per hyperperiod
  for (const Job& job : instance.jobs()) {
    EXPECT_EQ(job.window(), job.deadline - job.release);
    EXPECT_LE(job.deadline, Q(24));
  }
}

TEST(Workload, HeavyTailHasGiantsAndDwarfs) {
  Instance instance = generate_heavy_tail({.jobs = 60, .machines = 4, .horizon = 80,
                                           .shape = 1.2, .max_work = 64}, 9);
  ASSERT_EQ(instance.size(), 60u);
  std::size_t small = 0, large = 0;
  for (const Job& job : instance.jobs()) {
    EXPECT_GE(job.work, Q(1));
    EXPECT_LE(job.work, Q(64));
    EXPECT_LT(job.release, job.deadline);
    EXPECT_LE(job.deadline, Q(80));
    if (job.work <= Q(2)) ++small;
    if (job.work >= Q(16)) ++large;
  }
  EXPECT_GT(small, 20u);  // heavy tail: mass at the bottom...
  EXPECT_GE(large, 1u);   // ...with at least one giant
  EXPECT_THROW((void)generate_heavy_tail({.jobs = 2, .machines = 1, .horizon = 2,
                                          .shape = 1.0, .max_work = 1}, 1),
               std::invalid_argument);
}

TEST(Workload, HeavyTailSchedulesEndToEnd) {
  Instance instance = generate_heavy_tail({.jobs = 15, .machines = 3, .horizon = 40,
                                           .shape = 1.5, .max_work = 32}, 4);
  auto result = optimal_schedule(instance);
  EXPECT_TRUE(check_schedule(instance, result.schedule).feasible);
}

TEST(Workload, SurpriseMixesRelaxedAndUrgent) {
  Instance instance = generate_surprise({.jobs = 20, .machines = 2, .horizon = 30,
                                         .max_work = 5, .urgent_window = 3}, 5);
  ASSERT_EQ(instance.size(), 20u);
  std::size_t relaxed = 0, urgent = 0;
  for (const Job& job : instance.jobs()) {
    if (job.deadline == Q(30)) ++relaxed;
    if (job.window() <= Q(3)) ++urgent;
  }
  EXPECT_GE(relaxed, 10u);  // the even half (urgent jobs could also hit horizon)
  EXPECT_GE(urgent, 5u);
  EXPECT_THROW((void)generate_surprise({.jobs = 2, .machines = 1, .horizon = 2,
                                        .max_work = 1, .urgent_window = 1}, 1),
               std::invalid_argument);
}

TEST(Workload, AvrAdversaryShape) {
  Instance instance = generate_avr_adversary(5, 1);
  ASSERT_EQ(instance.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(instance.job(i).release, Q(static_cast<std::int64_t>(i)));
    EXPECT_EQ(instance.job(i).deadline, Q(5));
    EXPECT_EQ(instance.job(i).work, Q(1));
  }
}

TEST(Workload, ParallelBatchShape) {
  Instance instance = generate_parallel_batch(3, 4, 2);
  EXPECT_EQ(instance.size(), 12u);
  EXPECT_EQ(instance.machines(), 4u);
  EXPECT_EQ(instance.total_work(), Q(24));
}

TEST(Workload, GeneratorsValidateConfig) {
  EXPECT_THROW((void)generate_uniform({.jobs = 1, .machines = 1, .horizon = 1,
                                       .max_window = 1, .max_work = 1}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)generate_laminar({.jobs = 1, .machines = 1, .depth = 0,
                                       .max_work = 1}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)generate_avr_adversary(0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace mpss
