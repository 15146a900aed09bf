#include "mpss/core/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "mpss/util/error.hpp"

namespace mpss {

Schedule::Schedule(std::size_t machines) : machines_(machines) {
  check_arg(machines >= 1, "Schedule: machine count must be >= 1");
}

std::size_t Schedule::slice_count() const {
  std::size_t total = 0;
  for (const auto& machine : machines_) total += machine.size();
  return total;
}

void Schedule::add(std::size_t machine, Slice slice) {
  check_arg(machine < machines_.size(), "Schedule::add: machine index out of range");
  check_arg(slice.start < slice.end, "Schedule::add: slice needs start < end");
  check_arg(slice.speed.sign() > 0, "Schedule::add: slice speed must be positive");
  std::vector<Slice>& slices = machines_[machine];
  // In-order adds (engines and decoders emit slices by start) append: a start
  // at or after the last one is exactly where upper_bound would land.
  if (slices.empty() || !(slice.start < slices.back().start)) {
    slices.push_back(std::move(slice));
    return;
  }
  auto at = std::upper_bound(slices.begin(), slices.end(), slice.start,
                             [](const Q& start, const Slice& s) { return start < s.start; });
  slices.insert(at, std::move(slice));
}

std::span<const Slice> Schedule::machine(std::size_t index) const {
  check_arg(index < machines_.size(), "Schedule::machine: index out of range");
  return machines_[index];
}

std::vector<Slice> Schedule::slices_of(std::size_t job) const {
  std::vector<Slice> out;
  for (const auto& machine : machines_) {
    for (const Slice& slice : machine) {
      if (slice.job == job) out.push_back(slice);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Slice& a, const Slice& b) { return a.start < b.start; });
  return out;
}

Q Schedule::work_on(std::size_t job) const {
  Q total;
  for (const auto& machine : machines_) {
    for (const Slice& slice : machine) {
      if (slice.job == job) total += slice.work();
    }
  }
  return total;
}

Q Schedule::work_on_in(std::size_t job, const Q& t0, const Q& t1) const {
  Q total;
  for (const auto& machine : machines_) {
    for (const Slice& slice : machine) {
      if (slice.job != job) continue;
      const Q& lo = max(slice.start, t0);
      const Q& hi = min(slice.end, t1);
      if (lo < hi) total += slice.speed * (hi - lo);
    }
  }
  return total;
}

Schedule Schedule::clipped(const Q& t0, const Q& t1) const {
  Schedule out(machines_.size());
  for (std::size_t machine = 0; machine < machines_.size(); ++machine) {
    for (const Slice& slice : machines_[machine]) {
      Q lo = max(slice.start, t0);
      Q hi = min(slice.end, t1);
      if (lo < hi) out.add(machine, Slice{std::move(lo), std::move(hi), slice.speed, slice.job});
    }
  }
  return out;
}

void Schedule::merge(const Schedule& other) {
  check_arg(other.machines_.size() == machines_.size(),
            "Schedule::merge: machine counts differ");
  for (std::size_t machine = 0; machine < machines_.size(); ++machine) {
    for (const Slice& slice : other.machines_[machine]) add(machine, slice);
  }
}

double Schedule::energy(const PowerFunction& p) const {
  double total = 0.0;
  for (const auto& machine : machines_) {
    for (const Slice& slice : machine) {
      total += p.power(slice.speed.to_double()) * slice.duration().to_double();
    }
  }
  return total;
}

double Schedule::energy_with_idle(const PowerFunction& p, const Q& t0, const Q& t1) const {
  check_arg(t0 <= t1, "Schedule::energy_with_idle: t0 must be <= t1");
  double idle_power = p.power(0.0);
  double busy_energy = 0.0;
  Q busy_time;
  for (const auto& machine : machines_) {
    for (const Slice& slice : machine) {
      busy_energy += p.power(slice.speed.to_double()) * slice.duration().to_double();
      busy_time += slice.duration();
    }
  }
  Q horizon = (t1 - t0) * Q(static_cast<std::int64_t>(machines_.size()));
  return busy_energy + idle_power * (horizon - busy_time).to_double();
}

std::vector<Q> Schedule::speeds_at(const Q& t) const {
  std::vector<Q> speeds(machines_.size(), Q(0));
  for (std::size_t machine = 0; machine < machines_.size(); ++machine) {
    for (const Slice& slice : machines_[machine]) {
      if (slice.start <= t && t < slice.end) {
        speeds[machine] = slice.speed;
        break;
      }
    }
  }
  return speeds;
}

Q Schedule::max_speed() const {
  Q best(0);
  for (const auto& machine : machines_) {
    for (const Slice& slice : machine) best = max(best, slice.speed);
  }
  return best;
}

void FeasibilityReport::fail(std::string message) {
  feasible = false;
  if (violations.size() < kMaxViolations) violations.push_back(std::move(message));
}

FeasibilityReport check_schedule(const Instance& instance, const Schedule& schedule) {
  FeasibilityReport report;
  if (schedule.machines() > instance.machines()) {
    std::ostringstream os;
    os << "schedule uses " << schedule.machines() << " machines but instance has "
       << instance.machines();
    report.fail(os.str());
  }

  // Per-machine: window containment, job validity, machine-local overlap.
  for (std::size_t machine = 0; machine < schedule.machines(); ++machine) {
    auto slices = schedule.machine(machine);
    for (std::size_t i = 0; i < slices.size(); ++i) {
      const Slice& slice = slices[i];
      if (slice.job >= instance.size()) {
        std::ostringstream os;
        os << "machine " << machine << ": slice references unknown job " << slice.job;
        report.fail(os.str());
        continue;
      }
      const Job& job = instance.job(slice.job);
      if (slice.start < job.release || job.deadline < slice.end) {
        std::ostringstream os;
        os << "job " << slice.job << " runs in [" << slice.start << "," << slice.end
           << ") outside its window [" << job.release << "," << job.deadline << ")";
        report.fail(os.str());
      }
      if (i + 1 < slices.size() && slices[i + 1].start < slice.end) {
        std::ostringstream os;
        os << "machine " << machine << ": slices overlap at t=" << slices[i + 1].start;
        report.fail(os.str());
      }
    }
  }

  // Per-job: exact work completion and no simultaneous execution on two machines.
  for (std::size_t job_index = 0; job_index < instance.size(); ++job_index) {
    const Job& job = instance.job(job_index);
    Q done = schedule.work_on(job_index);
    if (done != job.work) {
      std::ostringstream os;
      os << "job " << job_index << " received work " << done << " != required "
         << job.work;
      report.fail(os.str());
    }
    auto slices = schedule.slices_of(job_index);
    for (std::size_t i = 0; i + 1 < slices.size(); ++i) {
      if (slices[i + 1].start < slices[i].end) {
        std::ostringstream os;
        os << "job " << job_index << " runs on two machines simultaneously at t="
           << slices[i + 1].start;
        report.fail(os.str());
      }
    }
  }
  return report;
}

std::size_t count_violations(const Instance& instance, const Schedule& schedule) {
  return check_schedule(instance, schedule).violations.size();
}

}  // namespace mpss
