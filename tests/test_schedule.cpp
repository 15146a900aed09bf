// Tests for the schedule container, energy measurement and the exact feasibility
// checker (S6).

#include "mpss/core/schedule.hpp"

#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace mpss {
namespace {

Instance one_job_instance() { return Instance({Job{Q(0), Q(4), Q(4)}}, 2); }

TEST(Schedule, AddValidation) {
  Schedule schedule(2);
  EXPECT_THROW(schedule.add(2, Slice{Q(0), Q(1), Q(1), 0}), std::invalid_argument);
  EXPECT_THROW(schedule.add(0, Slice{Q(1), Q(1), Q(1), 0}), std::invalid_argument);
  EXPECT_THROW(schedule.add(0, Slice{Q(0), Q(1), Q(0), 0}), std::invalid_argument);
  EXPECT_THROW(Schedule(0), std::invalid_argument);
  schedule.add(0, Slice{Q(0), Q(1), Q(1), 0});
  EXPECT_EQ(schedule.slice_count(), 1u);
}

TEST(Schedule, MachineViewIsSortedByStart) {
  Schedule schedule(1);
  schedule.add(0, Slice{Q(2), Q(3), Q(1), 0});
  schedule.add(0, Slice{Q(0), Q(1), Q(1), 1});
  auto slices = schedule.machine(0);
  ASSERT_EQ(slices.size(), 2u);
  EXPECT_EQ(slices[0].start, Q(0));
  EXPECT_EQ(slices[1].start, Q(2));
}

TEST(Schedule, AddKeepsStartOrderInAndOutOfOrder) {
  // Slices added in start order, out of it, and with equal starts land in the
  // same places: sorted by start, equal starts in insertion order.
  const std::vector<std::pair<int, std::size_t>> adds = {
      {0, 0}, {2, 1}, {2, 2}, {5, 3}, {1, 4}, {2, 5}, {0, 6}, {7, 7}, {5, 8}};
  Schedule schedule(1);
  for (const auto& [start, job] : adds) {
    schedule.add(0, Slice{Q(start), Q(start) + Q(1, 2), Q(1), job});
  }
  std::vector<std::size_t> jobs;
  for (const Slice& slice : schedule.machine(0)) jobs.push_back(slice.job);
  EXPECT_EQ(jobs, (std::vector<std::size_t>{0, 6, 4, 1, 2, 5, 3, 8, 7}));
}

TEST(Schedule, WorkAccounting) {
  Schedule schedule(2);
  schedule.add(0, Slice{Q(0), Q(2), Q(3), 7});   // 6 units
  schedule.add(1, Slice{Q(2), Q(3), Q(2), 7});   // 2 units
  schedule.add(1, Slice{Q(0), Q(2), Q(1), 4});   // other job
  EXPECT_EQ(schedule.work_on(7), Q(8));
  EXPECT_EQ(schedule.work_on(4), Q(2));
  EXPECT_EQ(schedule.work_on(99), Q(0));
  EXPECT_EQ(schedule.work_on_in(7, Q(1), Q(5, 2)), Q(3) + Q(1));  // half slices
}

TEST(Schedule, SlicesOfGathersAcrossMachines) {
  Schedule schedule(3);
  schedule.add(2, Slice{Q(4), Q(5), Q(1), 1});
  schedule.add(0, Slice{Q(0), Q(1), Q(1), 1});
  schedule.add(1, Slice{Q(2), Q(3), Q(1), 1});
  auto slices = schedule.slices_of(1);
  ASSERT_EQ(slices.size(), 3u);
  EXPECT_EQ(slices[0].start, Q(0));
  EXPECT_EQ(slices[1].start, Q(2));
  EXPECT_EQ(slices[2].start, Q(4));
}

TEST(Schedule, ClippedIntersectsExactly) {
  Schedule schedule(1);
  schedule.add(0, Slice{Q(0), Q(4), Q(2), 0});
  Schedule clipped = schedule.clipped(Q(1), Q(3));
  auto slices = clipped.machine(0);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].start, Q(1));
  EXPECT_EQ(slices[0].end, Q(3));
  EXPECT_EQ(clipped.work_on(0), Q(4));
  // Empty intersection drops the slice.
  EXPECT_EQ(schedule.clipped(Q(5), Q(9)).slice_count(), 0u);
}

TEST(Schedule, MergeAppendsSlices) {
  Schedule a(2);
  a.add(0, Slice{Q(0), Q(1), Q(1), 0});
  Schedule b(2);
  b.add(1, Slice{Q(1), Q(2), Q(2), 1});
  a.merge(b);
  EXPECT_EQ(a.slice_count(), 2u);
  EXPECT_EQ(a.work_on(1), Q(2));
  Schedule wrong(3);
  EXPECT_THROW(a.merge(wrong), std::invalid_argument);
}

TEST(Schedule, EnergyUnderAlphaPower) {
  Schedule schedule(2);
  schedule.add(0, Slice{Q(0), Q(2), Q(3), 0});  // 3^2 * 2 = 18
  schedule.add(1, Slice{Q(0), Q(1), Q(2), 1});  // 2^2 * 1 = 4
  AlphaPower p(2.0);
  EXPECT_NEAR(schedule.energy(p), 22.0, 1e-12);
}

TEST(Schedule, EnergyDoesNotDependOnEarlierReads) {
  // Slices added out of start order. Summed in insertion order, 2^53 + 1 + 1
  // rounds back to 2^53; in start order, 1 + 1 + 2^53 is exact. Reading the
  // machine view or checking the schedule must not move the energy's bits.
  Schedule schedule(1);
  schedule.add(0, Slice{Q(10), Q(14), Q(1 << 17), 0});  // (2^17)^3 * 4 = 2^53
  schedule.add(0, Slice{Q(0), Q(1), Q(1), 1});
  schedule.add(0, Slice{Q(5), Q(6), Q(1), 2});
  Instance instance({Job{Q(10), Q(14), Q(1 << 19)}, Job{Q(0), Q(1), Q(1)},
                     Job{Q(5), Q(6), Q(1)}},
                    1);
  AlphaPower cube(3.0);
  const double before = schedule.energy(cube);
  EXPECT_EQ(schedule.machine(0).front().start, Q(0));
  EXPECT_EQ(schedule.energy(cube), before);
  EXPECT_TRUE(check_schedule(instance, schedule).feasible);
  EXPECT_EQ(schedule.energy(cube), before);
  EXPECT_EQ(before, std::ldexp(1.0, 53) + 2.0);
}

TEST(Schedule, EnergyWithIdleAddsStaticPower) {
  Schedule schedule(2);
  schedule.add(0, Slice{Q(0), Q(1), Q(1), 0});
  // P(s) = s^3 + 1: busy contributes 2, idle contributes 1 * (2*4 - 1).
  CubicPlusLeakagePower p(1.0, 0.0, 1.0);
  EXPECT_NEAR(schedule.energy_with_idle(p, Q(0), Q(4)), 2.0 + 7.0, 1e-12);
}

TEST(Schedule, SpeedsAtSamplesAllMachines) {
  Schedule schedule(3);
  schedule.add(0, Slice{Q(0), Q(2), Q(5), 0});
  schedule.add(2, Slice{Q(1), Q(3), Q(1, 2), 1});
  auto speeds = schedule.speeds_at(Q(3, 2));
  ASSERT_EQ(speeds.size(), 3u);
  EXPECT_EQ(speeds[0], Q(5));
  EXPECT_EQ(speeds[1], Q(0));
  EXPECT_EQ(speeds[2], Q(1, 2));
  EXPECT_EQ(schedule.max_speed(), Q(5));
}

TEST(Feasibility, AcceptsACorrectSchedule) {
  Instance instance = one_job_instance();
  Schedule schedule(2);
  schedule.add(0, Slice{Q(0), Q(2), Q(1), 0});
  schedule.add(1, Slice{Q(2), Q(4), Q(1), 0});
  auto report = check_schedule(instance, schedule);
  EXPECT_TRUE(report.feasible) << report.violations.front();
}

TEST(Feasibility, RejectsIncompleteWork) {
  Instance instance = one_job_instance();
  Schedule schedule(2);
  schedule.add(0, Slice{Q(0), Q(2), Q(1), 0});  // only 2 of 4 units
  auto report = check_schedule(instance, schedule);
  EXPECT_FALSE(report.feasible);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_NE(report.violations[0].find("received work"), std::string::npos);
}

TEST(Feasibility, RejectsWindowViolation) {
  Instance instance = one_job_instance();
  Schedule schedule(2);
  schedule.add(0, Slice{Q(0), Q(5), Q(4, 5), 0});  // runs past deadline 4
  auto report = check_schedule(instance, schedule);
  EXPECT_FALSE(report.feasible);
}

TEST(Feasibility, RejectsMachineOverlap) {
  Instance instance({Job{Q(0), Q(4), Q(2)}, Job{Q(0), Q(4), Q(2)}}, 1);
  Schedule schedule(1);
  schedule.add(0, Slice{Q(0), Q(2), Q(1), 0});
  schedule.add(0, Slice{Q(1), Q(3), Q(1), 1});  // overlaps on machine 0
  auto report = check_schedule(instance, schedule);
  EXPECT_FALSE(report.feasible);
}

TEST(Feasibility, RejectsSelfParallelism) {
  // Same job on two machines at the same time -- the constraint migration must
  // respect (Section 1 of the paper).
  Instance instance({Job{Q(0), Q(4), Q(4)}}, 2);
  Schedule schedule(2);
  schedule.add(0, Slice{Q(0), Q(2), Q(1), 0});
  schedule.add(1, Slice{Q(1), Q(3), Q(1), 0});
  auto report = check_schedule(instance, schedule);
  EXPECT_FALSE(report.feasible);
  bool mentions_parallel = false;
  for (const auto& violation : report.violations) {
    mentions_parallel |= violation.find("simultaneously") != std::string::npos;
  }
  EXPECT_TRUE(mentions_parallel);
}

TEST(Feasibility, MigrationWithoutOverlapIsFine) {
  Instance instance({Job{Q(0), Q(4), Q(4)}}, 2);
  Schedule schedule(2);
  schedule.add(0, Slice{Q(0), Q(2), Q(1), 0});
  schedule.add(1, Slice{Q(2), Q(4), Q(1), 0});  // moves machines at t=2
  EXPECT_TRUE(check_schedule(instance, schedule).feasible);
}

TEST(Feasibility, RejectsUnknownJobAndTooManyMachines) {
  Instance instance = one_job_instance();
  Schedule schedule(2);
  schedule.add(0, Slice{Q(0), Q(4), Q(1), 3});  // no job 3
  EXPECT_FALSE(check_schedule(instance, schedule).feasible);

  Schedule wide(5);
  EXPECT_FALSE(check_schedule(instance, wide).feasible);
}

TEST(Feasibility, ZeroWorkJobNeedsNoSlices) {
  Instance instance({Job{Q(0), Q(4), Q(0)}}, 1);
  Schedule schedule(1);
  EXPECT_TRUE(check_schedule(instance, schedule).feasible);
}

TEST(Feasibility, ViolationListIsBounded) {
  Instance instance({Job{Q(0), Q(1), Q(100)}}, 1);
  Schedule schedule(1);
  for (int i = 0; i < 40; ++i) {
    // 40 window violations for the same job.
    schedule.add(0, Slice{Q(i + 1), Q(i + 2), Q(1), 0});
  }
  auto report = check_schedule(instance, schedule);
  EXPECT_FALSE(report.feasible);
  EXPECT_LE(report.violations.size(), FeasibilityReport::kMaxViolations);
}

}  // namespace
}  // namespace mpss
