#include "mpss/core/certify.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

namespace mpss {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// How job `job` uses an interval of `length`, for failure messages.
std::string role_text(std::size_t job, const Q& time, const Q& length, const Q& speed) {
  std::ostringstream os;
  os << "job " << job;
  if (time.is_zero()) {
    os << " does not run in it";
  } else if (time == length) {
    os << " runs all of it";
  } else {
    os << " runs " << time << " of it";
  }
  os << " at speed " << speed;
  return os.str();
}

}  // namespace

std::optional<std::string> certify_optimal(const Instance& instance,
                                           const Schedule& schedule) {
  const FeasibilityReport report = check_schedule(instance, schedule);
  if (!report.feasible) return "infeasible: " + report.violations.front();

  // Atomic intervals lie between consecutive distinct release/deadline points.
  const std::size_t n = instance.size();
  std::vector<Q> points;
  points.reserve(2 * n);
  for (const Job& job : instance.jobs()) {
    points.push_back(job.release);
    points.push_back(job.deadline);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  const std::size_t intervals = points.empty() ? 0 : points.size() - 1;

  // speed[k] = s_k; slice speeds are positive (Schedule::add), so 0 marks a job
  // with no slice seen yet. time[j * n + k] = t_kj, with slices clipped at the
  // points, since OA and AVR slices cross them; feasibility keeps each slice
  // inside its job's window, hence inside [points.front(), points.back()].
  std::vector<Q> speed(n);
  std::vector<Q> time(intervals * n);
  for (std::size_t machine = 0; machine < schedule.machines(); ++machine) {
    for (const Slice& slice : schedule.machine(machine)) {
      Q& job_speed = speed[slice.job];
      if (job_speed.is_zero()) {
        job_speed = slice.speed;
      } else if (job_speed != slice.speed) {
        std::ostringstream os;
        os << "job " << slice.job << " runs at two speeds, " << job_speed << " and "
           << slice.speed;
        return os.str();
      }
      auto j = static_cast<std::size_t>(
          std::upper_bound(points.begin(), points.end(), slice.start) - points.begin() - 1);
      for (; j < intervals && points[j] < slice.end; ++j) {
        time[j * n + slice.job] +=
            min(slice.end, points[j + 1]) - max(slice.start, points[j]);
      }
    }
  }

  const Q machines(static_cast<std::int64_t>(instance.machines()));
  for (std::size_t j = 0; j < intervals; ++j) {
    const Q* t = time.data() + j * n;
    const Q length = points[j + 1] - points[j];
    const Q capacity = length * machines;
    Q busy;
    for (std::size_t k = 0; k < n; ++k) busy += t[k];

    // The threshold must be >= the speed of every active job that idles in or
    // runs part of I_j (`low` holds the fastest), and <= the speed of every job
    // that runs part or all of it (`high` holds the slowest).
    std::size_t low = kNone;
    std::size_t high = kNone;
    for (std::size_t k = 0; k < n; ++k) {
      const Job& job = instance.job(k);
      if (job.work.sign() <= 0 || points[j] < job.release || job.deadline < points[j + 1]) {
        continue;  // not active in I_j
      }
      const bool full = t[k] == length;
      if (!full && busy < capacity) {
        std::ostringstream os;
        os << "idle capacity in interval [" << points[j] << "," << points[j + 1]
           << "): it is busy for " << busy << " of " << capacity << ", yet active "
           << role_text(k, t[k], length, speed[k]);
        return os.str();
      }
      if (!full && (low == kNone || speed[low] < speed[k])) low = k;
      if (t[k].sign() > 0 && (high == kNone || speed[k] < speed[high])) high = k;
    }
    if (low != kNone && high != kNone && speed[high] < speed[low]) {
      std::ostringstream os;
      os << "no threshold speed in interval [" << points[j] << "," << points[j + 1]
         << "): " << role_text(low, t[low], length, speed[low]) << " (threshold >= "
         << speed[low] << "), but " << role_text(high, t[high], length, speed[high])
         << " (threshold <= " << speed[high] << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

}  // namespace mpss
