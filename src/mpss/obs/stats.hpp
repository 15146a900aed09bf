#pragma once
// SolveStats: the common telemetry record every solver engine fills in (S40,
// see DESIGN.md).
//
// The named fields are the cross-engine quantities the benches and the facade
// compare (the per-round flow statistics Angel et al. report when contrasting
// the combinatorial route against the Bingham-Greenstreet LP route); the
// embedded Counters carries engine-specific extras without schema churn.
// Fields an engine does not exercise stay 0 -- a populated SolveStats is one
// whose exercised fields are filled, not one with every field non-zero.

#include <cstddef>

#include "mpss/obs/counters.hpp"
#include "mpss/obs/histogram.hpp"

namespace mpss::obs {

class TraceSink;  // trace.hpp; forward-declared so result structs carrying a
                  // SolveStats can also take a sink pointer without the full
                  // trace header

struct SolveStats {
  // Offline combinatorial engines (exact + fast).
  std::size_t phases = 0;             // speed levels p
  std::size_t flow_computations = 0;  // max-flow feasibility tests (sum of rounds)
  std::size_t flow_bfs_rounds = 0;    // Dinic level graphs built, all tests
  std::size_t flow_augmenting_paths = 0;
  std::size_t candidate_removals = 0;  // Lemma-4 removals (>= rounds - phases:
                                       // a round may remove several jobs)

  // LP engine.
  std::size_t simplex_pivots = 0;
  std::size_t simplex_degenerate_pivots = 0;

  // Online engines.
  std::size_t replans = 0;      // OA(m): re-planning events
  std::size_t peel_events = 0;  // AVR(m): dedicated-processor branches

  /// Wall-clock seconds of the engine run (steady clock, always measured --
  /// one clock pair per solve).
  double wall_seconds = 0.0;

  /// Engine-specific named extras ("optimal.intervals", "lp.variables", ...).
  Counters counters;

  /// Engine-specific distributions ("optimal.round_us" flow-round durations,
  /// "lp.pivots_per_solve", "optimal.rounds_per_phase", ...), log-bucketed
  /// (histogram.hpp). The solve() facade publishes them into the Registry's
  /// global histograms alongside the counters.
  HistogramMap histograms;

  /// Field-wise sum; used when one run aggregates many inner solves (OA's
  /// per-arrival planner calls).
  void merge(const SolveStats& other) {
    phases += other.phases;
    flow_computations += other.flow_computations;
    flow_bfs_rounds += other.flow_bfs_rounds;
    flow_augmenting_paths += other.flow_augmenting_paths;
    candidate_removals += other.candidate_removals;
    simplex_pivots += other.simplex_pivots;
    simplex_degenerate_pivots += other.simplex_degenerate_pivots;
    replans += other.replans;
    peel_events += other.peel_events;
    wall_seconds += other.wall_seconds;
    counters.merge(other.counters);
    merge_histograms(histograms, other.histograms);
  }
};

}  // namespace mpss::obs
