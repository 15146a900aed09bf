// Micro-benchmarks for the Dinic max-flow solver (S3) across capacity types:
// int64 (raw solver speed), double, and exact rationals (as used inside the
// offline optimal algorithm).

#include <benchmark/benchmark.h>

#include "mpss/flow/dinic.hpp"
#include "mpss/util/arena.hpp"
#include "mpss/util/random.hpp"

namespace {

using mpss::FlowNetwork;
using mpss::Q;

/// Builds the bipartite job-interval style network the scheduler uses:
/// source -> J jobs -> I intervals -> sink, each job connected to a random
/// subset of intervals (contiguous runs, like activity windows). `Net` is a
/// FlowNetwork over the benchmark's capacity type.
template <typename Net, typename MakeCap>
Net scheduler_shaped_network(std::size_t jobs, std::size_t intervals,
                             MakeCap make_cap, std::uint64_t seed) {
  mpss::Xoshiro256 rng(seed);
  Net net;
  auto source = net.add_node();
  auto job0 = net.add_nodes(jobs);
  auto interval0 = net.add_nodes(intervals);
  auto sink = net.add_node();
  for (std::size_t k = 0; k < jobs; ++k) {
    net.add_edge(source, job0 + k, make_cap(rng.uniform_int(1, 10)));
    std::size_t first = rng.below(intervals);
    std::size_t span = 1 + rng.below(intervals - first);
    for (std::size_t j = first; j < first + span; ++j) {
      net.add_edge(job0 + k, interval0 + j, make_cap(rng.uniform_int(1, 4)));
    }
  }
  for (std::size_t j = 0; j < intervals; ++j) {
    net.add_edge(interval0 + j, sink, make_cap(rng.uniform_int(2, 12)));
  }
  (void)sink;
  return net;
}

void BM_DinicInt64(benchmark::State& state) {
  auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto net = scheduler_shaped_network<FlowNetwork<std::int64_t>>(
        jobs, 2 * jobs, [](std::int64_t v) { return v; }, 7);
    state.ResumeTiming();
    benchmark::DoNotOptimize(net.max_flow(0, net.node_count() - 1));
  }
  // Kernel work counters from one untimed run (deterministic network).
  auto net = scheduler_shaped_network<FlowNetwork<std::int64_t>>(
      jobs, 2 * jobs, [](std::int64_t v) { return v; }, 7);
  net.max_flow(0, net.node_count() - 1);
  state.counters["bfs_rounds"] = static_cast<double>(net.kernel_stats().bfs_rounds);
  state.counters["aug_paths"] =
      static_cast<double>(net.kernel_stats().augmenting_paths);
}
BENCHMARK(BM_DinicInt64)->Arg(16)->Arg(64)->Arg(256);

void BM_DinicDouble(benchmark::State& state) {
  auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    auto net = scheduler_shaped_network<FlowNetwork<double>>(
        jobs, 2 * jobs, [](std::int64_t v) { return static_cast<double>(v); }, 7);
    state.ResumeTiming();
    benchmark::DoNotOptimize(net.max_flow(0, net.node_count() - 1));
  }
}
BENCHMARK(BM_DinicDouble)->Arg(16)->Arg(64)->Arg(256);

void BM_DinicRational(benchmark::State& state) {
  auto jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    // Denominators mimic interval lengths: small and varied.
    mpss::Xoshiro256 den_rng(11);
    auto net = scheduler_shaped_network<FlowNetwork<Q>>(
        jobs, 2 * jobs,
        [&den_rng](std::int64_t v) { return Q(v, den_rng.uniform_int(1, 6)); }, 7);
    state.ResumeTiming();
    benchmark::DoNotOptimize(net.max_flow(0, net.node_count() - 1));
  }
}
BENCHMARK(BM_DinicRational)->Arg(16)->Arg(64)->Arg(128);

void BM_DinicLayeredUnitCaps(benchmark::State& state) {
  // Classic hard-ish shape: layered graph with unit capacities.
  auto width = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kLayers = 12;
  for (auto _ : state) {
    state.PauseTiming();
    FlowNetwork<std::int64_t> net;
    auto s = net.add_node();
    auto t = net.add_node();
    std::vector<std::size_t> previous, current;
    for (std::size_t i = 0; i < width; ++i) previous.push_back(net.add_node());
    for (std::size_t i = 0; i < width; ++i) net.add_edge(s, previous[i], 1);
    for (std::size_t l = 1; l < kLayers; ++l) {
      current.clear();
      for (std::size_t i = 0; i < width; ++i) current.push_back(net.add_node());
      for (std::size_t i = 0; i < width; ++i) {
        net.add_edge(previous[i], current[i], 1);
        net.add_edge(previous[i], current[(i + 1) % width], 1);
      }
      previous = current;
    }
    for (std::size_t i = 0; i < width; ++i) net.add_edge(previous[i], t, 1);
    state.ResumeTiming();
    benchmark::DoNotOptimize(net.max_flow(s, t));
  }
}
BENCHMARK(BM_DinicLayeredUnitCaps)->Arg(16)->Arg(64);

void BM_FlowCsrSteadyStateInt64(benchmark::State& state) {
  // The S46 hot path in isolation: the network is built, CSR-frozen, and
  // arena-backed once; every iteration re-solves on the cached layout. This is
  // the shape the incremental engine sees on warm rounds -- no adjacency
  // rebuild, no scratch allocation -- so the delta against BM_DinicInt64
  // (which constructs per solve) is the cache-residency win.
  auto jobs = static_cast<std::size_t>(state.range(0));
  mpss::ScopedArena scratch;
  auto net = scheduler_shaped_network<FlowNetwork<std::int64_t>>(
      jobs, 2 * jobs, [](std::int64_t v) { return v; }, 7);
  net.set_scratch_arena(scratch.get());
  const std::size_t sink = net.node_count() - 1;
  benchmark::DoNotOptimize(net.max_flow(0, sink));  // freeze + warm the arena
  const std::uint64_t warm_fallbacks = scratch->stats().fallback_allocs;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.max_flow(0, sink));
  }
  state.counters["arena_bytes"] =
      static_cast<double>(scratch->stats().capacity_bytes);
  // Steady state must not touch the heap; a nonzero delta here is a regression.
  state.counters["fallback_allocs"] =
      static_cast<double>(scratch->stats().fallback_allocs - warm_fallbacks);
}
BENCHMARK(BM_FlowCsrSteadyStateInt64)->Arg(16)->Arg(64)->Arg(256);

void BM_FlowCsrSteadyStateRational(benchmark::State& state) {
  // Same steady-state shape over exact rationals: stresses the fused in-place
  // Rational primitives (sub_assign/add_assign/min_in_place) on the
  // bottleneck-and-augment walk instead of temporary-allocating operators.
  auto jobs = static_cast<std::size_t>(state.range(0));
  mpss::Xoshiro256 den_rng(11);
  mpss::ScopedArena scratch;
  auto net = scheduler_shaped_network<FlowNetwork<Q>>(
      jobs, 2 * jobs,
      [&den_rng](std::int64_t v) { return Q(v, den_rng.uniform_int(1, 6)); }, 7);
  net.set_scratch_arena(scratch.get());
  const std::size_t sink = net.node_count() - 1;
  benchmark::DoNotOptimize(net.max_flow(0, sink));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.max_flow(0, sink));
  }
  state.counters["arena_bytes"] =
      static_cast<double>(scratch->stats().capacity_bytes);
}
BENCHMARK(BM_FlowCsrSteadyStateRational)->Arg(16)->Arg(64)->Arg(128);

void BM_FlowCsrFreeze(benchmark::State& state) {
  // Cost of one CSR rebuild (counting sort + span carving) after a topology
  // thaw, isolated from the solve: this is the price each set_scratch_arena()
  // or add_edge() burst pays on the next solve.
  auto jobs = static_cast<std::size_t>(state.range(0));
  mpss::ScopedArena scratch;
  auto net = scheduler_shaped_network<FlowNetwork<std::int64_t>>(
      jobs, 2 * jobs, [](std::int64_t v) { return v; }, 7);
  const std::size_t sink = net.node_count() - 1;
  for (auto _ : state) {
    // Rewind-and-recarve, exactly the engines' per-solve discipline: the thaw
    // invalidates the old spans, the rewound arena serves the new ones.
    scratch->reset();
    net.set_scratch_arena(scratch.get());
    benchmark::DoNotOptimize(net.max_flow(0, sink));
  }
}
BENCHMARK(BM_FlowCsrFreeze)->Arg(16)->Arg(64)->Arg(256);

}  // namespace
