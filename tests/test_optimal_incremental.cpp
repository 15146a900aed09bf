// Tests for the warm-started flow rounds (DESIGN S42): both engines build one
// flow network per phase and resume it in every later round, and the exact
// engine's schedules pass the optimality certificate (core/certify.hpp) on the
// golden corpus and a removal-heavy instance. Also pins both engines'
// warm-start and arena telemetry counters (they share one phase loop).
//
// A guided exact solve starts each phase from its own job set, so it closes
// every phase in one flow and never resumes. The exact engine's warm starts
// are therefore exercised through optimal_schedule_hinted with an all-zero
// hint, which is the plain phase loop.

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus.hpp"
#include "mpss/core/certify.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/core/optimal_fast.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/solve.hpp"
#include "mpss/workload/generators.hpp"

namespace mpss {
namespace {

void expect_certified(const Instance& instance, const Schedule& schedule,
                      const std::string& tag) {
  std::optional<std::string> failure = certify_optimal(instance, schedule);
  EXPECT_FALSE(failure.has_value()) << tag << ": " << *failure;
}

/// Every round after a phase's first resumes the phase's network, so an engine
/// takes exactly one warm start per flow computation beyond one per phase. This
/// guards against warm starts silently turning back into rebuilds.
void expect_every_later_round_resumed(const obs::SolveStats& stats,
                                      const std::string& tag) {
  EXPECT_EQ(stats.counters.value("flow.warm_starts"),
            stats.flow_computations - stats.phases)
      << tag;
}

/// The exact engine's plain phase loop: the all-zero hint.
OptimalResult unguided_schedule(const Instance& instance) {
  return optimal_schedule_hinted(instance, std::vector<std::size_t>(instance.size(), 0));
}

class IncrementalCorpus : public testing::TestWithParam<std::string> {};

TEST_P(IncrementalCorpus, EveryLaterRoundResumesAndTheScheduleCertifies) {
  Instance instance = corpus::load(GetParam());
  auto unguided = unguided_schedule(instance);
  expect_certified(instance, unguided.schedule, GetParam());
  expect_every_later_round_resumed(unguided.stats, GetParam() + " exact");
  expect_every_later_round_resumed(optimal_schedule_fast(instance).stats,
                                   GetParam() + " fast");
}

INSTANTIATE_TEST_SUITE_P(GoldenInstances, IncrementalCorpus,
                         testing::ValuesIn(corpus::names()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

/// A deep laminar workload forces long removal chains (phases with several
/// rounds), which is what the warm starts exist for; the same workload family
/// drives bench_offline's round-scaling benchmarks.
Instance removal_heavy_instance() {
  return generate_laminar(
      LaminarWorkload{.jobs = 24, .machines = 3, .depth = 7, .max_work = 12}, 3);
}

/// Both engines run the same phase loop, so both must report warm starts, and
/// exactly one per round after a phase's first.
void expect_warm_start_counters(const obs::SolveStats& stats, const char* engine) {
  EXPECT_GT(stats.counters.value("flow.warm_starts"), 0u) << engine;
  EXPECT_GT(stats.counters.value("flow.resume_bfs"), 0u) << engine;
  EXPECT_GT(stats.counters.value("flow.retracted_units"), 0u) << engine;
  expect_every_later_round_resumed(stats, engine);
}

TEST(OptimalIncremental, WarmStartCountersSurfaceThroughStats) {
  Instance instance = removal_heavy_instance();
  auto exact = unguided_schedule(instance);
  ASSERT_GT(exact.stats.flow_computations, exact.phases.size())
      << "precondition: instance must have removal rounds";
  expect_certified(instance, exact.schedule, "removal-heavy");
  expect_warm_start_counters(exact.stats, "exact");
  expect_warm_start_counters(optimal_schedule_fast(instance).stats, "fast");
}

TEST(OptimalIncremental, SolveFacadePublishesFlowCountersToRegistry) {
  // The fast engine: its phases keep their removal rounds under solve().
  Instance instance = removal_heavy_instance();
  auto before = obs::Registry::global().snapshot().value("flow.warm_starts");
  SolveOptions options;
  options.engine = Engine::kFast;
  auto result = solve(instance, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.stats.counters.value("flow.warm_starts"), 0u);
  auto after = obs::Registry::global().snapshot().value("flow.warm_starts");
  EXPECT_GT(after, before);
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
  expect_steady_state([&] { return optimal_schedule(instance); }, "exact");
  expect_steady_state([&] { return unguided_schedule(instance); }, "unguided exact");
  expect_steady_state([&] { return optimal_schedule_fast(instance); }, "fast");
}

TEST(OptimalIncremental, SteadyStateHoldsOnCorpusInstances) {
  for (const std::string& name : corpus::names()) {
    Instance instance = corpus::load(name);
    (void)optimal_schedule(instance);  // warm the pool for this shape
    auto warm = optimal_schedule(instance);
    EXPECT_EQ(warm.stats.counters.value("mem.fallback_allocs"), 0u)
        << name << ": warm corpus solve allocated outside the pooled arena";
    EXPECT_GE(warm.stats.counters.value("mem.arena_reuses"), 1u) << name;
  }
}

}  // namespace
}  // namespace mpss
