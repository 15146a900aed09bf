#pragma once
// Schedule representation, exact feasibility checking and energy measurement
// (substrate S6, see DESIGN.md).

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "mpss/core/job.hpp"
#include "mpss/core/power.hpp"
#include "mpss/util/rational.hpp"

namespace mpss {

/// A maximal piece of uninterrupted execution: job `job` runs at constant `speed`
/// during [start, end) on some processor.
struct Slice {
  Q start;
  Q end;
  Q speed;
  std::size_t job;

  [[nodiscard]] Q duration() const { return end - start; }
  [[nodiscard]] Q work() const { return speed * duration(); }

  friend bool operator==(const Slice&, const Slice&) = default;
};

/// A multi-processor schedule: per-processor lists of slices. Slices may be added
/// in any order; each machine keeps its slices sorted by start time as they
/// arrive (slices with equal starts in insertion order), so every reader --
/// energy included -- sees one order. Feasibility (windows, overlaps, work
/// completion) is verified by check_schedule, not at insertion, so algorithms
/// can build schedules incrementally.
class Schedule {
 public:
  explicit Schedule(std::size_t machines);

  [[nodiscard]] std::size_t machines() const { return machines_.size(); }
  [[nodiscard]] std::size_t slice_count() const;

  /// Adds a slice to `machine`. Validates only local sanity: machine in range,
  /// start < end, speed > 0 (zero-speed execution is represented by *absence* of
  /// slices, as in the paper's schedules).
  void add(std::size_t machine, Slice slice);

  /// Slices of one machine, sorted by start time.
  [[nodiscard]] std::span<const Slice> machine(std::size_t index) const;

  /// All slices of one job across machines, sorted by start time.
  [[nodiscard]] std::vector<Slice> slices_of(std::size_t job) const;

  /// Total work performed on `job` over the whole schedule.
  [[nodiscard]] Q work_on(std::size_t job) const;

  /// Work performed on `job` within [t0, t1) (slices clipped exactly).
  [[nodiscard]] Q work_on_in(std::size_t job, const Q& t0, const Q& t1) const;

  /// Copy of the schedule clipped to [t0, t1): slices are intersected with the
  /// window; empty intersections are dropped.
  [[nodiscard]] Schedule clipped(const Q& t0, const Q& t1) const;

  /// Adds every slice of `other` (machine counts must match).
  void merge(const Schedule& other);

  /// Energy consumed according to P: sum over slices of P(speed) * duration,
  /// in machine order, then start order.
  /// Idle time contributes P(0) * idle_duration per machine over [t0, t1) only if
  /// P(0) > 0; pass the instance horizon for power functions with static power.
  [[nodiscard]] double energy(const PowerFunction& p) const;

  /// Energy including idle power P(0) over horizon [t0, t1) on all machines.
  [[nodiscard]] double energy_with_idle(const PowerFunction& p, const Q& t0,
                                        const Q& t1) const;

  /// Speeds of all machines at time t (0 = idle), in machine order.
  [[nodiscard]] std::vector<Q> speeds_at(const Q& t) const;

  /// Maximum speed over all slices (0 for an empty schedule).
  [[nodiscard]] Q max_speed() const;

 private:
  std::vector<std::vector<Slice>> machines_;
};

/// Result of validating a schedule against an instance. `violations` holds
/// human-readable descriptions (at most `kMaxViolations` are collected).
struct FeasibilityReport {
  bool feasible = true;
  std::vector<std::string> violations;

  static constexpr std::size_t kMaxViolations = 16;

  explicit operator bool() const { return feasible; }
  void fail(std::string message);
};

/// Exact feasibility check:
///  * every slice lies inside its job's [release, deadline),
///  * slices on one machine never overlap,
///  * no job runs on two machines at the same time (migration yes, parallelism no),
///  * every job receives exactly its work.
[[nodiscard]] FeasibilityReport check_schedule(const Instance& instance,
                                               const Schedule& schedule);

/// Number of violations check_schedule finds (0 = feasible). Capped at
/// FeasibilityReport::kMaxViolations, like the report it summarizes. The
/// counterpart of count_fast_violations for exact schedules; SolveResult's
/// violations() helper dispatches between the two.
[[nodiscard]] std::size_t count_violations(const Instance& instance,
                                           const Schedule& schedule);

}  // namespace mpss
