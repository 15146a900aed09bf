#pragma once
// Optimality certificate for exact schedules (S49; proof in DESIGN.md,
// "Optimality certificate"): the KKT condition of the convex program behind the
// flow formulation, which proves a schedule optimal for every convex
// non-decreasing power function at once -- the paper's Theorem 1, checked per
// schedule. It reads only the instance and the schedule and shares no logic with
// the engines: it splits the release and deadline points and clips slices at
// them itself, so it checks any exact schedule (offline, OA, AVR, hand-built).

#include <optional>
#include <string>

#include "mpss/core/job.hpp"
#include "mpss/core/schedule.hpp"

namespace mpss {

/// std::nullopt when `schedule` is certified optimal for `instance`; otherwise
/// the first failed condition, naming the interval, the jobs and their speeds.
/// The conditions, in the order they are checked:
///  * the schedule is feasible (check_schedule);
///  * every job runs at a single speed s_k;
///  * every atomic interval I_j between consecutive release/deadline points has
///    a threshold speed sigma_j >= 0 such that
///      - if I_j has idle capacity (sum_k t_kj < m * |I_j|), every active job
///        runs all of I_j;
///      - a job that runs part of I_j (0 < t_kj < |I_j|) has s_k == sigma_j;
///      - a job that runs all of I_j has s_k >= sigma_j;
///      - an active job that does not run in I_j has s_k <= sigma_j.
/// Here t_kj is the time job k runs inside I_j, and job k is active in I_j when
/// it has positive work and I_j lies inside its window. All arithmetic is exact.
///
/// A certified schedule minimizes energy for every convex non-decreasing P,
/// counting idle processors at P(0) (Schedule::energy_with_idle); with P(0) = 0
/// that is Schedule::energy. The condition is sufficient, not necessary.
[[nodiscard]] std::optional<std::string> certify_optimal(const Instance& instance,
                                                         const Schedule& schedule);

}  // namespace mpss
