// Tests for the guided exact engine (DESIGN.md "Guided exact engine"): the
// double-precision engine's partition seeds each exact phase, the optimality
// certificate proves the result, and a result it cannot prove is recomputed by
// the plain phase loop. Pins that guided results are bit-identical to the plain
// loop's, with one flow per phase and no fallback, on the corpus, the generated
// set and at the serving benchmark's size; that a wrong hint and a failing
// guide both fall back to the optimum; and that cancellation is never turned
// into a fallback.

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "corpus.hpp"
#include "mpss/core/certify.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/core/optimal_fast.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/util/cancel.hpp"

namespace mpss {
namespace {

std::vector<std::size_t> all_zero_hint(const Instance& instance) {
  return std::vector<std::size_t>(instance.size(), 0);
}

std::uint64_t fallbacks(const OptimalResult& result) {
  return result.stats.counters.value("optimal.guide_fallbacks");
}

std::uint64_t guided_phases(const OptimalResult& result) {
  return result.stats.counters.value("optimal.guided_phases");
}

/// Same energy to the last bit, the same schedule, slice for slice, and the
/// same phases (jobs, speed and reservations) as `expected`. The energies are
/// read first: Schedule::machine sorts the slices it returns in place, and
/// Schedule::energy sums them in stored order.
void expect_same_result(const OptimalResult& actual, const OptimalResult& expected,
                        const std::string& tag) {
  const AlphaPower cube(3.0);
  EXPECT_EQ(actual.schedule.energy(cube), expected.schedule.energy(cube)) << tag;
  ASSERT_EQ(actual.phases.size(), expected.phases.size()) << tag;
  for (std::size_t i = 0; i < expected.phases.size(); ++i) {
    EXPECT_EQ(actual.phases[i].jobs, expected.phases[i].jobs) << tag << " phase " << i;
    EXPECT_EQ(actual.phases[i].speed, expected.phases[i].speed) << tag << " phase " << i;
    EXPECT_EQ(actual.phases[i].machines_per_interval,
              expected.phases[i].machines_per_interval)
        << tag << " phase " << i;
  }
  ASSERT_EQ(actual.schedule.machines(), expected.schedule.machines()) << tag;
  for (std::size_t machine = 0; machine < expected.schedule.machines(); ++machine) {
    EXPECT_TRUE(std::ranges::equal(actual.schedule.machine(machine),
                                   expected.schedule.machine(machine)))
        << tag << " machine " << machine;
  }
}

/// Runs `check(instance, tag)` over the corpus and the generated set.
template <class Check>
void for_each_test_instance(Check check) {
  for (const std::string& name : corpus::names()) check(corpus::load(name), name);
  for (std::uint64_t seed = 1; seed <= corpus::kGeneratedCount; ++seed) {
    check(corpus::generated(seed), "generated seed " + std::to_string(seed));
  }
}

TEST(GuidedExact, MatchesThePlainLoopInOneFlowPerPhaseOnCorpusAndGeneratedSet) {
  for_each_test_instance([](const Instance& instance, const std::string& tag) {
    const OptimalResult guided = optimal_schedule(instance);
    const OptimalResult plain = optimal_schedule_hinted(instance, all_zero_hint(instance));
    EXPECT_EQ(fallbacks(guided), 0u) << tag;
    EXPECT_EQ(guided_phases(guided), guided.phases.size()) << tag;
    EXPECT_EQ(guided.stats.flow_computations, guided.phases.size()) << tag;
    EXPECT_EQ(fallbacks(plain), 0u) << tag;
    expect_same_result(guided, plain, tag);
  });
}

/// The serving benchmark's four exact families at n=64, m=4 (the parameters of
/// servebench's `family_instance`), plus the uniform one rescaled off the
/// integers as a quarter of its exact requests are. Their plain-loop phases
/// remove several jobs per max flow, which the small generated set rarely does.
std::vector<std::pair<std::string, Instance>> serving_size_instances() {
  constexpr std::size_t n = 64;
  constexpr std::size_t m = 4;
  constexpr std::int64_t horizon = 3 * static_cast<std::int64_t>(n);
  constexpr std::uint64_t seed = 7;
  std::vector<std::pair<std::string, Instance>> instances;
  instances.emplace_back("uniform", generate_uniform({.jobs = n, .machines = m,
                                                      .horizon = horizon,
                                                      .max_window = 10, .max_work = 8},
                                                     seed));
  instances.emplace_back(
      "uniform rescaled",
      scale_work(scale_time(instances.back().second, Q(1009, 997)), Q(101, 103)));
  instances.emplace_back("bursty",
                         generate_bursty({.bursts = n / 4, .jobs_per_burst = 4,
                                          .machines = m, .horizon = horizon,
                                          .burst_window = 6, .max_work = 8},
                                         seed));
  instances.emplace_back(
      "laminar", generate_laminar({.jobs = n, .machines = m, .depth = 4, .max_work = 8}, seed));
  instances.emplace_back("heavy tail", generate_heavy_tail({.jobs = n, .machines = m,
                                                            .horizon = horizon,
                                                            .shape = 1.5, .max_work = 64},
                                                           seed));
  return instances;
}

TEST(GuidedExact, MatchesThePlainLoopAtServingSize) {
  for (const auto& [tag, instance] : serving_size_instances()) {
    const OptimalResult guided = optimal_schedule(instance);
    const OptimalResult plain = optimal_schedule_hinted(instance, all_zero_hint(instance));
    EXPECT_EQ(fallbacks(guided), 0u) << tag;
    EXPECT_EQ(guided.stats.flow_computations, guided.phases.size()) << tag;
    EXPECT_EQ(fallbacks(plain), 0u) << tag;
    expect_same_result(guided, plain, tag);
    std::optional<std::string> failure = certify_optimal(instance, guided.schedule);
    EXPECT_FALSE(failure.has_value()) << tag << ": " << *failure;
    EXPECT_EQ(optimal_schedule_fast(instance).job_phase, plain.job_phase) << tag;
    // Some round removes more than one job: Lemma 4 excludes them all at once.
    EXPECT_GT(plain.stats.candidate_removals,
              plain.stats.flow_computations - plain.phases.size())
        << tag;
  }
}

TEST(GuidedExact, AHintMissingAJobOfTheFirstPhaseFallsBackToTheOptimum) {
  // The exact partition with one J_1 job demoted to hint 1: phase 1 starts
  // without it, so the hinted run closes a wrong first phase.
  std::size_t demoted = 0;
  for_each_test_instance([&](const Instance& instance, const std::string& tag) {
    const OptimalResult plain = optimal_schedule_hinted(instance, all_zero_hint(instance));
    if (plain.phases.empty() || plain.phases.front().jobs.size() < 2) return;
    std::vector<std::size_t> hint = plain.job_phase;
    hint[plain.phases.front().jobs.front()] = 1;
    ++demoted;
    const OptimalResult result = optimal_schedule_hinted(instance, hint);
    EXPECT_EQ(fallbacks(result), 1u) << tag;
    EXPECT_EQ(guided_phases(result), 0u) << tag;
    expect_same_result(result, plain, tag);
    std::optional<std::string> failure = certify_optimal(instance, result.schedule);
    EXPECT_FALSE(failure.has_value()) << tag << ": " << *failure;
  });
  EXPECT_GE(demoted, 50u) << "too few first phases with two jobs to demote one";
}

TEST(GuidedExact, AGuideThatThrowsFallsBackToThePlainLoop) {
  const Instance instance = corpus::vanishing_window();
  EXPECT_THROW((void)optimal_schedule_fast(instance), std::invalid_argument);
  const OptimalResult result = optimal_schedule(instance);
  EXPECT_EQ(result.phases.size(), 2u);
  EXPECT_EQ(fallbacks(result), 1u);
  EXPECT_EQ(guided_phases(result), 0u);
  expect_same_result(result, optimal_schedule_hinted(instance, all_zero_hint(instance)),
                     "vanishing window");
  std::optional<std::string> failure = certify_optimal(instance, result.schedule);
  EXPECT_FALSE(failure.has_value()) << *failure;
}

TEST(GuidedExact, CancellationPropagatesFromTheGuideAndTheHintedRun) {
  const Instance instance = corpus::generated(1);
  CancelToken token;
  token.request_cancel();
  const OptimalOptions options{.cancel = &token};
  EXPECT_THROW((void)optimal_schedule(instance, options), CancelledError);
  EXPECT_THROW((void)optimal_schedule_hinted(instance, all_zero_hint(instance), options),
               CancelledError);
}

TEST(GuidedExact, RejectsAHintOfTheWrongSizeAndAblatedOptions) {
  const Instance instance = corpus::generated(1);
  EXPECT_THROW((void)optimal_schedule_hinted(
                   instance, std::vector<std::size_t>(instance.size() + 1, 0)),
               std::invalid_argument);
  EXPECT_THROW(
      (void)optimal_schedule_hinted(
          instance, {},
          {.removal_policy = OptimalOptions::RemovalPolicy::kRandomCandidate}),
      std::invalid_argument);
  // An empty hint is the plain loop.
  expect_same_result(optimal_schedule_hinted(instance, {}),
                     optimal_schedule_hinted(instance, all_zero_hint(instance)),
                     "empty hint");
}

TEST(GuidedExact, AblatedRemovalsRunThePlainLoopWithoutTheGuide) {
  const Instance instance = corpus::generated(2);
  obs::MemorySink sink;
  const OptimalResult result = optimal_schedule(
      instance, {.removal_policy = OptimalOptions::RemovalPolicy::kRandomCandidate}, &sink);
  EXPECT_EQ(sink.count_label("optimal_fast.solve"), 0u);
  EXPECT_EQ(sink.count_label("optimal.certify"), 0u);
  EXPECT_EQ(guided_phases(result), 0u);
  EXPECT_EQ(fallbacks(result), 0u);
}

TEST(GuidedExact, TheGuideAndTheCertificateNestUnderTheSolveSpan) {
  const Instance instance = corpus::load(corpus::names().front());
  obs::MemorySink sink;
  (void)optimal_schedule(instance, OptimalOptions{}, &sink);
  std::map<std::string, std::vector<std::uint64_t>> parents;  // label -> parent ids
  std::uint64_t solve_id = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.kind != obs::EventKind::kSpanBegin) continue;
    parents[e.label].push_back(e.b);
    if (e.label == "optimal.solve") solve_id = e.a;
  }
  ASSERT_EQ(parents["optimal.solve"], std::vector<std::uint64_t>{0});
  EXPECT_EQ(parents["optimal_fast.solve"], std::vector<std::uint64_t>{solve_id});
  EXPECT_EQ(parents["optimal.certify"], std::vector<std::uint64_t>{solve_id});
}

}  // namespace
}  // namespace mpss
