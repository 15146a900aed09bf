// Cross-module integration tests: the full pipeline (generator -> algorithms ->
// feasibility -> energy) plus the relations the paper's analysis hinges on, checked
// jointly across algorithms on shared instances.

#include <gtest/gtest.h>

#include <cmath>

#include "mpss/core/instance_json.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/core/yds.hpp"
#include "mpss/lp/lp_baseline.hpp"
#include "mpss/nomig/nonmigratory.hpp"
#include "mpss/online/avr.hpp"
#include "mpss/online/bounds.hpp"
#include "mpss/online/oa.hpp"
#include "mpss/util/thread_pool.hpp"
#include "mpss/workload/generators.hpp"

namespace mpss {
namespace {

TEST(Integration, OptimumLowerBoundsEveryAlgorithm) {
  // OPT must not exceed OA(m), AVR(m), or any non-migratory strategy -- on the
  // same instance, same power function. This wires five modules together.
  AlphaPower p(2.5);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Instance instance = generate_uniform({.jobs = 9, .machines = 3, .horizon = 15,
                                          .max_window = 7, .max_work = 5}, seed);
    double opt = optimal_energy(instance, p);
    EXPECT_LE(opt, oa_energy(instance, p) + 1e-9) << seed;
    EXPECT_LE(opt, avr_energy(instance, p) + 1e-9) << seed;
    EXPECT_LE(opt, nonmigratory_greedy(instance, p).energy + 1e-9) << seed;
    EXPECT_LE(opt, nonmigratory_round_robin(instance, p).energy + 1e-9) << seed;
  }
}

TEST(Integration, AggregationInequality10) {
  // Inequality (10) in Theorem 3's proof: m^(1-a) * E^1_OPT <= E_OPT(m), where
  // E^1_OPT is the optimal single-processor energy for the same jobs.
  AlphaPower p(2.0);
  const double alpha = 2.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (std::size_t m : {2u, 4u}) {
      Instance instance = generate_uniform({.jobs = 8, .machines = m, .horizon = 14,
                                            .max_window = 7, .max_work = 5}, seed);
      double multi = optimal_energy(instance, p);
      double single = yds_schedule(instance.with_machines(1)).schedule.energy(p);
      EXPECT_LE(std::pow(static_cast<double>(m), 1.0 - alpha) * single,
                multi + 1e-9)
          << "seed " << seed << " m " << m;
    }
  }
}

TEST(Integration, AvrAdversaryPushesRatioUp) {
  // Experiment E6's mechanism: on the expiring-stack instance, AVR(1)'s ratio
  // grows with n (toward the (2 alpha)^alpha / 2 regime), while staying inside the
  // Theorem 3 bound.
  AlphaPower p(2.0);
  double previous_ratio = 0.0;
  for (std::size_t n : {4u, 8u, 16u}) {
    Instance instance = generate_avr_adversary(n, 1);
    double ratio = avr_energy(instance, p) / optimal_energy(instance, p);
    EXPECT_GT(ratio, previous_ratio) << n;  // strictly growing on this family
    EXPECT_LE(ratio, avr_multi_competitive_bound(2.0));
    previous_ratio = ratio;
  }
  EXPECT_GT(previous_ratio, 1.5);  // far from trivial by n = 16
}

TEST(Integration, TraceRoundTripPreservesAllEnergies) {
  // Serializing an instance and reloading it must not change any algorithm's
  // behaviour (exact rational round-trip).
  Instance original = generate_bursty({.bursts = 3, .jobs_per_burst = 4,
                                       .machines = 2, .horizon = 18,
                                       .burst_window = 4, .max_work = 5}, 31);
  Instance reloaded = instance_from_json(instance_to_json(original));
  AlphaPower p(3.0);
  EXPECT_DOUBLE_EQ(optimal_energy(original, p), optimal_energy(reloaded, p));
  EXPECT_DOUBLE_EQ(oa_energy(original, p), oa_energy(reloaded, p));
  EXPECT_DOUBLE_EQ(avr_energy(original, p), avr_energy(reloaded, p));
}

TEST(Integration, GeneralConvexPowerFunctionsShareTheOptimalSchedule) {
  // Section 2's claim: the algorithm is optimal for EVERY convex non-decreasing P
  // simultaneously. Probe: the computed schedule's energy under three different
  // power functions is within the LP baseline bracket for each of them.
  Instance instance = generate_uniform({.jobs = 5, .machines = 2, .horizon = 10,
                                        .max_window = 6, .max_work = 4}, 8);
  auto result = optimal_schedule(instance);
  AlphaPower square(2.0);
  AlphaPower cube(3.0);
  PiecewiseLinearPower piecewise({{0, 0}, {1, 1}, {2, 4}, {4, 16}, {8, 64}});
  for (const PowerFunction* p :
       std::initializer_list<const PowerFunction*>{&square, &cube, &piecewise}) {
    double energy = result.schedule.energy(*p);
    auto lp = lp_baseline(instance, *p, 24);
    ASSERT_EQ(lp.status, LpSolution::Status::kOptimal) << p->name();
    EXPECT_LE(energy, lp.energy + 1e-6) << p->name();
    EXPECT_GE(lp.energy, energy * 0.98) << p->name();  // fine grid is close
  }
}

TEST(Integration, ParallelSweepMatchesSequential) {
  // The experiment harness runs (seed) cells in a thread pool; results must be
  // identical to a sequential run (exact arithmetic, no shared state).
  AlphaPower p(2.0);
  constexpr std::size_t kCells = 12;
  std::vector<double> sequential(kCells), parallel(kCells);
  auto cell = [&p](std::uint64_t seed) {
    Instance instance = generate_uniform({.jobs = 7, .machines = 2, .horizon = 12,
                                          .max_window = 6, .max_work = 4}, seed);
    return oa_energy(instance, p) / optimal_energy(instance, p);
  };
  for (std::size_t i = 0; i < kCells; ++i) sequential[i] = cell(i + 1);
  parallel_for(kCells, [&](std::size_t i) { parallel[i] = cell(i + 1); }, 4);
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_DOUBLE_EQ(sequential[i], parallel[i]) << i;
  }
}

TEST(Integration, HeavierLoadRaisesOptimalEnergySuperlinearly) {
  // Convexity sanity across the stack: doubling all works multiplies optimal
  // energy by 2^alpha exactly (speeds scale linearly).
  AlphaPower p(3.0);
  Instance base = generate_uniform({.jobs = 8, .machines = 2, .horizon = 12,
                                    .max_window = 6, .max_work = 4}, 12);
  std::vector<Job> doubled_jobs = base.jobs();
  for (Job& job : doubled_jobs) job.work *= Q(2);
  Instance doubled(doubled_jobs, base.machines());
  EXPECT_NEAR(optimal_energy(doubled, p), 8.0 * optimal_energy(base, p),
              1e-6 * optimal_energy(doubled, p));
}

TEST(Integration, EndToEndKitchenSink) {
  // One instance through everything the library offers, asserting mutual
  // consistency of all the feasible schedules produced.
  Instance instance = generate_periodic({.tasks = 4, .machines = 3,
                                         .hyperperiods = 1, .max_work = 4}, 77);
  AlphaPower p(2.0);

  auto opt = optimal_schedule(instance);
  auto oa = oa_schedule(instance);
  auto avr = avr_schedule(instance);
  auto greedy = nonmigratory_greedy(instance, p);

  for (const Schedule* schedule :
       {&opt.schedule, &oa.schedule, &avr.schedule, &greedy.schedule}) {
    auto report = check_schedule(instance, *schedule);
    ASSERT_TRUE(report.feasible) << report.violations.front();
  }

  double e_opt = opt.schedule.energy(p);
  EXPECT_LE(e_opt, oa.schedule.energy(p) + 1e-9);
  EXPECT_LE(e_opt, avr.schedule.energy(p) + 1e-9);
  EXPECT_LE(e_opt, greedy.energy + 1e-9);
  EXPECT_LE(oa.schedule.energy(p) / e_opt, oa_competitive_bound(2.0) + 1e-9);
  EXPECT_LE(avr.schedule.energy(p) / e_opt, avr_multi_competitive_bound(2.0) + 1e-9);
}

}  // namespace
}  // namespace mpss
