// Ablation tests (experiment E12): switching off the paper's load-bearing design
// choices must visibly break exactly the property each choice protects --
// optimality for the Lemma 4 removal rule, feasibility for AVR's peel-off. The
// optimality certificate (core/certify.hpp) must see the broken optimality.

#include <gtest/gtest.h>

#include "mpss/core/certify.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/online/avr.hpp"
#include "mpss/util/error.hpp"
#include "mpss/workload/generators.hpp"

namespace mpss {
namespace {

TEST(Ablation, RandomRemovalStaysFeasibleButLosesOptimality) {
  AlphaPower p(2.0);
  AlphaPower cube(3.0);
  OptimalOptions ablated;
  ablated.removal_policy = OptimalOptions::RemovalPolicy::kRandomCandidate;

  std::size_t worse = 0;
  std::size_t attempted = 0;
  std::size_t above_optimum = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Instance instance =
        seed % 2 == 0
            ? generate_laminar({.jobs = 12, .machines = 2, .depth = 3, .max_work = 8}, seed)
            : generate_uniform({.jobs = 12, .machines = 3, .horizon = 24, .max_window = 8,
                                .max_work = 8},
                               seed);
    double exact = optimal_energy(instance, p);
    double exact_cube = optimal_energy(instance, cube);
    for (std::uint64_t ablation_seed = 1; ablation_seed <= 3; ++ablation_seed) {
      ablated.ablation_seed = ablation_seed;
      ++attempted;
      try {
        auto result = optimal_schedule(instance, ablated);
        // Whatever sets it produced, the flow certificates keep it feasible.
        auto report = check_schedule(instance, result.schedule);
        ASSERT_TRUE(report.feasible) << "seed " << seed << ": "
                                     << report.violations.front();
        double energy = result.schedule.energy(p);
        EXPECT_GE(energy, exact - 1e-9) << seed;  // can never beat the optimum
        if (energy > exact * (1.0 + 1e-9)) ++worse;
        // The optimality certificate must reject every schedule above the
        // optimum under P(s) = s^3 (equal-energy ones it may accept).
        if (result.schedule.energy(cube) > exact_cube * (1.0 + 1e-9)) {
          EXPECT_TRUE(certify_optimal(instance, result.schedule).has_value())
              << "seed " << seed << "/" << ablation_seed << " is above the optimum";
          ++above_optimum;
        }
      } catch (const InternalError&) {
        // Random removals may empty a candidate set -- also a failure mode the
        // paper's rule provably avoids.
        ++worse;
      }
    }
  }
  // The ablated rule must actually misbehave on a meaningful share of instances,
  // otherwise the ablation demonstrates nothing; enough of its schedules must
  // complete above the optimum for the certificate check to mean something.
  EXPECT_GE(worse, attempted / 4)
      << "random removal looked as good as Lemma 4's rule -- suspicious";
  EXPECT_GE(above_optimum, 10u) << "too few completed ablated schedules above the optimum";
}

TEST(Ablation, PaperRuleIsDefaultAndDeterministic) {
  Instance instance = generate_laminar({.jobs = 10, .machines = 2, .depth = 3,
                                        .max_work = 6}, 3);
  auto a = optimal_schedule(instance);
  auto b = optimal_schedule(instance, OptimalOptions{});
  AlphaPower p(2.5);
  EXPECT_DOUBLE_EQ(a.schedule.energy(p), b.schedule.energy(p));
  EXPECT_EQ(a.phases.size(), b.phases.size());
}

TEST(Ablation, AvrWithoutPeelingViolatesSelfParallelism) {
  // One dominant job (density 10) among light ones: Fig. 3's peel gives it a
  // dedicated processor; without peeling its chunk spans > 1 unit of the wrap
  // tape and lands on two processors at the same time.
  Instance instance({Job{Q(0), Q(1), Q(10)}, Job{Q(0), Q(1), Q(1)},
                     Job{Q(0), Q(1), Q(1)}}, 2);
  auto good = avr_schedule(instance);
  EXPECT_TRUE(check_schedule(instance, good.schedule).feasible);

  auto bad = avr_schedule(instance, AvrOptions{.enable_peeling = false});
  auto report = check_schedule(instance, bad.schedule);
  EXPECT_FALSE(report.feasible);
  bool self_parallel = false;
  for (const auto& violation : report.violations) {
    self_parallel |= violation.find("simultaneously") != std::string::npos;
  }
  EXPECT_TRUE(self_parallel) << "expected a self-parallelism violation";
}

TEST(Ablation, AvrWithoutPeelingFineWhenDensitiesBalanced) {
  // When no job exceeds the average load, the peel never fires and the ablated
  // variant coincides with the real one.
  std::vector<Job> jobs(4, Job{Q(0), Q(2), Q(2)});
  Instance instance(jobs, 2);
  auto ablated = avr_schedule(instance, AvrOptions{.enable_peeling = false});
  auto report = check_schedule(instance, ablated.schedule);
  EXPECT_TRUE(report.feasible);
  AlphaPower p(2.0);
  EXPECT_NEAR(ablated.schedule.energy(p), avr_energy(instance, p), 1e-12);
}

TEST(Ablation, AvrPeelingCountsMatchDominantJobs) {
  // Sanity on the non-ablated path: number of peels in one interval equals the
  // number of jobs denser than the running average (computed independently).
  Instance instance({Job{Q(0), Q(1), Q(9)}, Job{Q(0), Q(1), Q(5)},
                     Job{Q(0), Q(1), Q(1)}, Job{Q(0), Q(1), Q(1)}}, 3);
  auto result = avr_schedule(instance);
  EXPECT_EQ(result.peel_events, 2u);  // 9 > 16/3, then 5 > 7/2; 1 <= 2/1
  EXPECT_TRUE(check_schedule(instance, result.schedule).feasible);
}

}  // namespace
}  // namespace mpss
