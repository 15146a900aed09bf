// Micro-benchmarks for the offline algorithms: the paper's combinatorial optimal
// scheduler (Theorem 1) scaling in n and m, plus YDS and the feasibility checker.

#include <benchmark/benchmark.h>

#include <vector>

#include "mpss/core/optimal.hpp"
#include "mpss/core/optimal_fast.hpp"
#include "mpss/core/yds.hpp"
#include "mpss/obs/ring_sink.hpp"
#include "mpss/util/numeric_counters.hpp"
#include "mpss/workload/generators.hpp"

namespace {

using namespace mpss;

Instance bench_instance(std::size_t jobs, std::size_t machines, std::uint64_t seed) {
  return generate_uniform({.jobs = jobs, .machines = machines,
                           .horizon = 2 * static_cast<std::int64_t>(jobs),
                           .max_window = 10, .max_work = 8}, seed);
}

/// Publishes an engine's SolveStats as machine-readable benchmark counters
/// (visible in --benchmark_format=json). Harvested from one untimed solve so
/// the timed loop stays untouched.
void report_stats(benchmark::State& state, const mpss::obs::SolveStats& stats) {
  state.counters["phases"] = static_cast<double>(stats.phases);
  state.counters["flow_computations"] = static_cast<double>(stats.flow_computations);
  state.counters["bfs_rounds"] = static_cast<double>(stats.flow_bfs_rounds);
  state.counters["aug_paths"] = static_cast<double>(stats.flow_augmenting_paths);
  state.counters["removals"] = static_cast<double>(stats.candidate_removals);
}

/// Publishes the BigInt/Rational fast-path distribution of one untimed solve:
/// how much of the exact engine's arithmetic stayed inline vs promoted to
/// limb vectors. small_hits >> promotions is the whole point of the fast path.
void report_numeric_profile(benchmark::State& state, const Instance& instance) {
  mpss::publish_numeric_counters();  // drop whatever the timed loop accumulated
  benchmark::DoNotOptimize(optimal_schedule(instance));
  const mpss::NumericCounters& counters = mpss::numeric_counters();
  state.counters["small_hits"] = static_cast<double>(counters.bigint_small_hits);
  state.counters["promotions"] = static_cast<double>(counters.bigint_promotions);
  state.counters["norm_small"] =
      static_cast<double>(counters.rational_norm_small);
  mpss::publish_numeric_counters();
}

void BM_OptimalScheduleByJobs(benchmark::State& state) {
  Instance instance = bench_instance(static_cast<std::size_t>(state.range(0)), 4, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_schedule(instance));
  }
  state.SetComplexityN(state.range(0));
  report_stats(state, optimal_schedule(instance).stats);
  report_numeric_profile(state, instance);
}
BENCHMARK(BM_OptimalScheduleByJobs)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_OptimalScheduleForcedLimbPath(benchmark::State& state) {
  // The pre-fast-path cost model: identical algorithm, every BigInt forced
  // through the limb-vector representation. The ratio of this benchmark to
  // BM_OptimalScheduleByJobs on the same Arg is the end-to-end speedup.
  Instance instance = bench_instance(static_cast<std::size_t>(state.range(0)), 4, 1);
  BigInt::set_test_force_big(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_schedule(instance));
  }
  BigInt::set_test_force_big(false);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OptimalScheduleForcedLimbPath)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void BM_OptimalScheduleByMachines(benchmark::State& state) {
  Instance instance = bench_instance(32, static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_schedule(instance));
  }
}
BENCHMARK(BM_OptimalScheduleByMachines)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_OptimalScheduleRingTraced(benchmark::State& state) {
  // Tracing overhead (S43 budget): same solve as BM_OptimalScheduleByJobs but
  // every event and span lands in a lock-free RingSink. Compare against the
  // untraced run at the same Arg; the delta is the full instrumented-emit cost
  // (span clock reads included). Rings are drained per iteration so a full
  // buffer never silently turns emits into cheap drops.
  Instance instance = bench_instance(static_cast<std::size_t>(state.range(0)), 4, 1);
  mpss::obs::RingSink ring(1 << 16);
  mpss::OptimalOptions options;
  std::size_t events = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_schedule(instance, options, &ring));
    events += ring.drain().size();
  }
  state.counters["events"] =
      static_cast<double>(events) / static_cast<double>(state.iterations());
  state.counters["ring_dropped"] = static_cast<double>(ring.dropped());
}
BENCHMARK(BM_OptimalScheduleRingTraced)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_LaminarDeepPhases(benchmark::State& state) {
  // Laminar instances maximize the number of distinct speed levels (phases).
  Instance instance = generate_laminar({.jobs = static_cast<std::size_t>(state.range(0)),
                                        .machines = 2, .depth = 5, .max_work = 12}, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_schedule(instance));
  }
  report_stats(state, optimal_schedule(instance).stats);
  report_numeric_profile(state, instance);
}
BENCHMARK(BM_LaminarDeepPhases)->Arg(16)->Arg(32);

/// Round-heavy workload for the warm-start benchmarks: a deep laminar hierarchy
/// keeps the per-phase Lemma-4 removal chains long at every n (hundreds to
/// thousands of flow rounds) -- the regime the warm-started rounds (DESIGN S42)
/// target. Shallower hierarchies degenerate to one phase as n grows.
Instance round_heavy_instance(std::size_t jobs) {
  return generate_laminar({.jobs = jobs, .machines = 3, .depth = 7, .max_work = 12}, 3);
}

void BM_OptimalIncrementalRounds(benchmark::State& state) {
  // Exact engine's plain phase loop (the all-zero hint; a guided solve closes
  // each phase in one flow) on the round-heavy workload; the
  // bfs_rounds/aug_paths counters track the Dinic work of the warm-started
  // rounds.
  Instance instance = round_heavy_instance(static_cast<std::size_t>(state.range(0)));
  const std::vector<std::size_t> plain(instance.size(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_schedule_hinted(instance, plain));
  }
  report_stats(state, optimal_schedule_hinted(instance, plain).stats);
}
BENCHMARK(BM_OptimalIncrementalRounds)->Arg(16)->Arg(64)->ArgName("jobs");

void BM_FastIncrementalRounds(benchmark::State& state) {
  // Same workload on the double-precision engine, which reaches n=256.
  Instance instance = round_heavy_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_schedule_fast(instance));
  }
  report_stats(state, optimal_schedule_fast(instance).stats);
}
BENCHMARK(BM_FastIncrementalRounds)->Arg(16)->Arg(64)->Arg(256)->ArgName("jobs");

void BM_OptimalScheduleFastByJobs(benchmark::State& state) {
  // The double-precision engine on the same instances as the exact benchmark.
  Instance instance = bench_instance(static_cast<std::size_t>(state.range(0)), 4, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_schedule_fast(instance));
  }
  report_stats(state, optimal_schedule_fast(instance).stats);
}
BENCHMARK(BM_OptimalScheduleFastByJobs)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_Yds(benchmark::State& state) {
  Instance instance = bench_instance(static_cast<std::size_t>(state.range(0)), 1, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(yds_schedule(instance));
  }
}
BENCHMARK(BM_Yds)->Arg(8)->Arg(16)->Arg(32);

void BM_FeasibilityChecker(benchmark::State& state) {
  Instance instance = bench_instance(static_cast<std::size_t>(state.range(0)), 4, 5);
  auto result = optimal_schedule(instance);
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_schedule(instance, result.schedule));
  }
}
BENCHMARK(BM_FeasibilityChecker)->Arg(16)->Arg(64);

void BM_EnergyMeasurement(benchmark::State& state) {
  Instance instance = bench_instance(64, 4, 6);
  auto result = optimal_schedule(instance);
  AlphaPower p(2.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(result.schedule.energy(p));
  }
}
BENCHMARK(BM_EnergyMeasurement);

}  // namespace
