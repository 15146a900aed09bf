#pragma once
// Double-precision fast path of the offline optimal algorithm (S31).
//
// The exact engine (core/optimal.hpp) pays arbitrary-precision rational costs to
// make the paper's equality tests literal. This is the engineering counterpart a
// production system would deploy. Both engines run one phase loop
// (core/optimal.cpp), instantiated with two numeric policies: exact equality
// over Q there, IEEE doubles with relative-epsilon acceptance tests and
// ulp-drift clamps here. It trades certainty for speed (order-of-magnitude; see
// bench_offline and experiment E13) and is validated against the exact engine
// in tests -- energies agree to ~1e-9 relative on every sampled instance.
//
// The fast path returns its own lightweight schedule type: re-encoding binary
// doubles as exact rationals would launder approximation into "exact" data.

#include <cstddef>
#include <vector>

#include "mpss/core/job.hpp"
#include "mpss/core/power.hpp"
#include "mpss/obs/stats.hpp"
#include "mpss/util/cancel.hpp"

namespace mpss {

/// One execution piece in the double-precision schedule.
struct FastSlice {
  double start;
  double end;
  double speed;
  std::size_t job;
};

/// Per-machine slices plus measurement helpers (mirrors Schedule, in double).
struct FastSchedule {
  std::vector<std::vector<FastSlice>> machines;

  [[nodiscard]] std::size_t slice_count() const;
  [[nodiscard]] double energy(const PowerFunction& p) const;
  [[nodiscard]] double work_on(std::size_t job) const;
  [[nodiscard]] double max_speed() const;
};

struct FastOptimalResult {
  /// job_phase value for jobs that belong to no phase (zero work).
  static constexpr std::size_t kNoPhase = static_cast<std::size_t>(-1);

  FastSchedule schedule;
  std::vector<double> phase_speeds;  // descending (within tolerance)
  /// Index into `phase_speeds` per job (kNoPhase for zero-work jobs): the
  /// partition the exact engine takes as its phase hint.
  std::vector<std::size_t> job_phase;
  /// Telemetry mirroring the exact engine's (phases/rounds/removals, flow-kernel
  /// work, wall time) so bench_offline can compare the two paths event-for-event.
  obs::SolveStats stats;
};

/// Approximate feasibility: window containment and machine overlap within
/// `tolerance` (absolute, in time units), work completion within `tolerance`
/// relative. Returns the number of violations (0 = feasible).
[[nodiscard]] std::size_t count_fast_violations(const Instance& instance,
                                                const FastSchedule& schedule,
                                                double tolerance = 1e-7);

/// Knobs for the fast path (the subset of OptimalOptions that applies here).
struct FastOptimalOptions {
  /// Relative tolerance of the flow-saturation tests (looser values risk
  /// misclassifying phases on near-degenerate instances -- experiment E13).
  double epsilon = 1e-9;
  /// Cooperative cancellation / soft deadline, polled at phase and round
  /// boundaries (util/cancel.hpp); the engine throws CancelledError when the
  /// token fires. Null never fires. Not owned; must outlive the call.
  const CancelToken* cancel = nullptr;
};

/// The offline algorithm over doubles. `options.epsilon` is the relative
/// tolerance of the flow-saturation tests (default 1e-9; looser values risk
/// misclassifying phases on near-degenerate instances -- experiment E13
/// quantifies this). `trace` records the same event stream as the exact engine
/// under "optimal_fast.*" labels; null falls back to the process-wide sink in
/// obs::Registry. Throws std::invalid_argument when a job's window converts to
/// an empty double interval (release and deadline round to the same double).
[[nodiscard]] FastOptimalResult optimal_schedule_fast(
    const Instance& instance, const FastOptimalOptions& options = {},
    obs::TraceSink* trace = nullptr);

}  // namespace mpss
