// Differential tests for the warm-started incremental flow rounds (DESIGN S42):
// the exact engine's incremental path must be BIT-IDENTICAL to the rebuild
// path -- phases, speeds, reservations, rounds, and the full schedule -- on the
// golden corpus and across random workloads; the fast (double) engine agrees
// within its usual tolerances. Also pins both engines' warm-start and arena
// telemetry counters (they share one phase loop).

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mpss/core/optimal.hpp"
#include "mpss/core/optimal_fast.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/solve.hpp"
#include "mpss/util/error.hpp"
#include "mpss/workload/generators.hpp"
#include "mpss/workload/traces.hpp"

#ifndef MPSS_DATA_DIR
#error "MPSS_DATA_DIR must point at data/corpus"
#endif

namespace mpss {
namespace {

OptimalResult run_exact(const Instance& instance, bool incremental,
                        OptimalOptions::RemovalPolicy policy =
                            OptimalOptions::RemovalPolicy::kPaperRule,
                        std::uint64_t seed = 0) {
  OptimalOptions options;
  options.incremental = incremental;
  options.removal_policy = policy;
  options.ablation_seed = seed;
  return optimal_schedule(instance, options);
}

FastOptimalResult run_fast(const Instance& instance, bool incremental) {
  FastOptimalOptions options;
  options.incremental = incremental;
  return optimal_schedule_fast(instance, options);
}

void expect_bit_identical(const Instance& instance, const OptimalResult& warm,
                          const OptimalResult& rebuild, const std::string& tag) {
  EXPECT_EQ(warm.flow_computations, rebuild.flow_computations) << tag;
  ASSERT_EQ(warm.phases.size(), rebuild.phases.size()) << tag;
  for (std::size_t i = 0; i < warm.phases.size(); ++i) {
    EXPECT_EQ(warm.phases[i].jobs, rebuild.phases[i].jobs) << tag << " phase " << i;
    EXPECT_EQ(warm.phases[i].speed, rebuild.phases[i].speed) << tag << " phase " << i;
    EXPECT_EQ(warm.phases[i].machines_per_interval,
              rebuild.phases[i].machines_per_interval)
        << tag << " phase " << i;
    EXPECT_EQ(warm.phases[i].rounds, rebuild.phases[i].rounds) << tag << " phase " << i;
  }
  for (std::size_t job = 0; job < instance.size(); ++job) {
    EXPECT_EQ(warm.speed_of_job(job), rebuild.speed_of_job(job)) << tag << " job " << job;
  }
  ASSERT_EQ(warm.schedule.machines(), rebuild.schedule.machines()) << tag;
  for (std::size_t machine = 0; machine < warm.schedule.machines(); ++machine) {
    auto lhs = warm.schedule.machine(machine);
    auto rhs = rebuild.schedule.machine(machine);
    ASSERT_EQ(lhs.size(), rhs.size()) << tag << " machine " << machine;
    for (std::size_t i = 0; i < lhs.size(); ++i) {
      EXPECT_EQ(lhs[i], rhs[i]) << tag << " machine " << machine << " slice " << i;
    }
  }
}

std::vector<std::string> corpus_names() {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(MPSS_DATA_DIR)) {
    std::string file = entry.path().filename().string();
    const std::string suffix = ".instance.csv";
    if (file.size() > suffix.size() &&
        file.compare(file.size() - suffix.size(), suffix.size(), suffix) == 0) {
      names.push_back(file.substr(0, file.size() - suffix.size()));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

class IncrementalCorpus : public testing::TestWithParam<std::string> {};

TEST_P(IncrementalCorpus, WarmStartIsBitIdenticalToRebuild) {
  Instance instance =
      load_instance(std::string(MPSS_DATA_DIR) + "/" + GetParam() + ".instance.csv");
  auto warm = run_exact(instance, /*incremental=*/true);
  auto rebuild = run_exact(instance, /*incremental=*/false);
  expect_bit_identical(instance, warm, rebuild, GetParam());
}

INSTANTIATE_TEST_SUITE_P(GoldenInstances, IncrementalCorpus,
                         testing::ValuesIn(corpus_names()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(OptimalIncremental, RandomWorkloadsAreBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Instance uniform = generate_uniform(
        UniformWorkload{.jobs = 18, .machines = 3, .horizon = 40, .max_window = 14,
                        .max_work = 9},
        seed);
    auto warm = run_exact(uniform, true);
    auto rebuild = run_exact(uniform, false);
    expect_bit_identical(uniform, warm, rebuild, "uniform seed " + std::to_string(seed));

    Instance laminar = generate_laminar(
        LaminarWorkload{.jobs = 20, .machines = 2, .depth = 4, .max_work = 12}, seed);
    warm = run_exact(laminar, true);
    rebuild = run_exact(laminar, false);
    expect_bit_identical(laminar, warm, rebuild, "laminar seed " + std::to_string(seed));
  }
}

TEST(OptimalIncremental, AblatedPolicyWithFixedSeedIsBitIdentical) {
  // kRandomCandidate picks victims from the PRNG, independently of the flow, so
  // the incremental and rebuild trajectories coincide step for step -- including
  // the documented dead end (random removals can strand pending jobs with no
  // capacity, which surfaces as InternalError on BOTH paths or on neither).
  Instance instance = generate_uniform(
      UniformWorkload{.jobs = 16, .machines = 3, .horizon = 30, .max_window = 10,
                      .max_work = 8},
      7);
  std::size_t compared = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    auto run = [&](bool incremental) -> std::optional<OptimalResult> {
      try {
        return run_exact(instance, incremental,
                         OptimalOptions::RemovalPolicy::kRandomCandidate, seed);
      } catch (const InternalError&) {
        return std::nullopt;
      }
    };
    auto warm = run(true);
    auto rebuild = run(false);
    ASSERT_EQ(warm.has_value(), rebuild.has_value()) << "seed " << seed;
    if (!warm.has_value()) continue;
    ++compared;
    EXPECT_EQ(warm->flow_computations, rebuild->flow_computations) << "seed " << seed;
    ASSERT_EQ(warm->phases.size(), rebuild->phases.size()) << "seed " << seed;
    for (std::size_t i = 0; i < warm->phases.size(); ++i) {
      EXPECT_EQ(warm->phases[i].jobs, rebuild->phases[i].jobs) << seed << "/" << i;
      EXPECT_EQ(warm->phases[i].speed, rebuild->phases[i].speed) << seed << "/" << i;
    }
    EXPECT_EQ(warm->schedule.slice_count(), rebuild->schedule.slice_count())
        << "seed " << seed;
  }
  EXPECT_GT(compared, 0u) << "every ablation seed dead-ended; pick another instance";
}

TEST(OptimalIncremental, FastEngineAgreesWithinTolerance) {
  AlphaPower cube(3.0);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Instance instance = generate_uniform(
        UniformWorkload{.jobs = 20, .machines = 3, .horizon = 40, .max_window = 12,
                        .max_work = 9},
        seed);
    FastOptimalOptions warm_options;
    FastOptimalOptions rebuild_options;
    rebuild_options.incremental = false;
    auto warm = optimal_schedule_fast(instance, warm_options);
    auto rebuild = optimal_schedule_fast(instance, rebuild_options);

    EXPECT_EQ(count_fast_violations(instance, warm.schedule), 0u) << seed;
    EXPECT_EQ(count_fast_violations(instance, rebuild.schedule), 0u) << seed;
    ASSERT_EQ(warm.phase_speeds.size(), rebuild.phase_speeds.size()) << seed;
    for (std::size_t i = 0; i < warm.phase_speeds.size(); ++i) {
      EXPECT_NEAR(warm.phase_speeds[i], rebuild.phase_speeds[i],
                  1e-6 * (1.0 + rebuild.phase_speeds[i]))
          << seed << " phase " << i;
    }
    double warm_energy = warm.schedule.energy(cube);
    double rebuild_energy = rebuild.schedule.energy(cube);
    EXPECT_NEAR(warm_energy, rebuild_energy, 1e-6 * (1.0 + rebuild_energy)) << seed;
  }
}

/// A deep laminar workload forces long removal chains (phases with several
/// rounds), which is what the warm starts exist for; the same workload family
/// drives bench_offline's round-scaling benchmarks.
Instance removal_heavy_instance() {
  return generate_laminar(
      LaminarWorkload{.jobs = 24, .machines = 3, .depth = 7, .max_work = 12}, 3);
}

/// Both engines run the same phase loop, so both must report warm starts on
/// their incremental path and none when rebuilding every round.
void expect_warm_start_counters(const obs::SolveStats& warm,
                                const obs::SolveStats& rebuild, const char* engine) {
  EXPECT_GT(warm.counters.value("flow.warm_starts"), 0u) << engine;
  EXPECT_GT(warm.counters.value("flow.resume_bfs"), 0u) << engine;
  EXPECT_GT(warm.counters.value("flow.retracted_units"), 0u) << engine;

  EXPECT_EQ(rebuild.counters.value("flow.warm_starts"), 0u) << engine;
  EXPECT_EQ(rebuild.counters.value("flow.resume_bfs"), 0u) << engine;
  EXPECT_EQ(rebuild.counters.value("flow.retracted_units"), 0u) << engine;
}

TEST(OptimalIncremental, WarmStartCountersSurfaceThroughStats) {
  Instance instance = removal_heavy_instance();
  auto warm = run_exact(instance, true);
  ASSERT_GT(warm.flow_computations, warm.phases.size())
      << "precondition: instance must have removal rounds";
  expect_warm_start_counters(warm.stats, run_exact(instance, false).stats, "exact");
  expect_warm_start_counters(run_fast(instance, true).stats,
                             run_fast(instance, false).stats, "fast");
}

TEST(OptimalIncremental, WarmStartReducesDinicWork) {
  Instance instance = removal_heavy_instance();
  auto warm = run_exact(instance, true);
  auto rebuild = run_exact(instance, false);
  expect_bit_identical(instance, warm, rebuild, "removal-heavy");
  // Total Dinic work (level graphs built + augmenting paths pushed): resumed
  // rounds re-augment only the retracted slack, so the warm path must do
  // strictly less than rebuild-every-round even counting the canonical
  // closing re-solves.
  std::size_t warm_work = warm.stats.flow_bfs_rounds + warm.stats.flow_augmenting_paths;
  std::size_t rebuild_work =
      rebuild.stats.flow_bfs_rounds + rebuild.stats.flow_augmenting_paths;
  EXPECT_LT(warm_work, rebuild_work);
}

TEST(OptimalIncremental, SolveFacadePublishesFlowCountersToRegistry) {
  Instance instance = removal_heavy_instance();
  auto before = obs::Registry::global().snapshot().value("flow.warm_starts");
  SolveOptions options;
  options.engine = Engine::kExact;
  auto result = solve(instance, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.stats.counters.value("flow.warm_starts"), 0u);
  auto after = obs::Registry::global().snapshot().value("flow.warm_starts");
  EXPECT_GT(after, before);
}

TEST(OptimalIncremental, ArenaCountersSurfaceThroughStats) {
  Instance instance = removal_heavy_instance();
  auto result = run_exact(instance, true);
  // The engine routed its scratch through the pooled arena and reported how
  // much it carved out of it.
  EXPECT_GT(result.stats.counters.value("mem.arena_bytes"), 0u);
}

TEST(OptimalIncremental, SteadyStateWarmRoundsAreAllocationFree) {
  // The S46 pin: once a thread's pooled arena is warmed by one solve, every
  // subsequent solve of comparable shape must run without grabbing a single
  // new heap block (mem.fallback_allocs == 0) and must actually be reusing the
  // pooled arena (mem.arena_reuses counts rewinds at scope release, so the
  // second solve observes at least one).
  Instance instance = removal_heavy_instance();
  auto expect_steady_state = [](auto solve_once, const char* engine) {
    (void)solve_once();  // cold solve: warms this thread's pool
    for (int round = 0; round < 3; ++round) {
      const obs::SolveStats stats = solve_once().stats;
      EXPECT_EQ(stats.counters.value("mem.fallback_allocs"), 0u)
          << engine << " steady-state round " << round << " fell back to the heap";
      EXPECT_GE(stats.counters.value("mem.arena_reuses"), 1u) << engine;
      EXPECT_GT(stats.counters.value("mem.arena_bytes"), 0u) << engine;
    }
  };
  expect_steady_state([&] { return run_exact(instance, true); }, "exact");
  expect_steady_state([&] { return run_fast(instance, true); }, "fast");
}

TEST(OptimalIncremental, SteadyStateHoldsOnCorpusInstances) {
  for (const std::string& name : corpus_names()) {
    Instance instance =
        load_instance(std::string(MPSS_DATA_DIR) + "/" + name + ".instance.csv");
    (void)run_exact(instance, true);  // warm the pool for this shape
    auto warm = run_exact(instance, true);
    EXPECT_EQ(warm.stats.counters.value("mem.fallback_allocs"), 0u)
        << name << ": warm corpus solve allocated outside the pooled arena";
    EXPECT_GE(warm.stats.counters.value("mem.arena_reuses"), 1u) << name;
  }
}

}  // namespace
}  // namespace mpss
