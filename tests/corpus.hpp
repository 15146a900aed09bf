#pragma once
// The instances the suites replay: the golden corpus (data/corpus), a seeded
// generated set, and hand-built instances that several suites share. One copy
// each; tests/CMakeLists.txt defines MPSS_DATA_DIR for every test target.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "mpss/core/instance_json.hpp"
#include "mpss/core/job.hpp"
#include "mpss/workload/generators.hpp"
#include "mpss/workload/transform.hpp"

#ifndef MPSS_DATA_DIR
#error "MPSS_DATA_DIR must point at data/corpus"
#endif

namespace mpss::corpus {

/// Path of entry `name`'s file with `suffix` (".instance.json", ".golden.csv").
inline std::string path(const std::string& name,
                        const std::string& suffix = ".instance.json") {
  return std::string(MPSS_DATA_DIR) + "/" + name + suffix;
}

/// Sorted names of the entries, one per "<name>.instance.json".
inline std::vector<std::string> names() {
  const std::string suffix = ".instance.json";
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(MPSS_DATA_DIR)) {
    const std::string file = entry.path().filename().string();
    if (file.size() > suffix.size() && file.ends_with(suffix)) {
      names.push_back(file.substr(0, file.size() - suffix.size()));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Entry `name`'s instance.
inline Instance load(const std::string& name) { return load_instance(path(name)); }

/// Seeds 1..kGeneratedCount of generated().
inline constexpr std::uint64_t kGeneratedCount = 204;

/// The generated set's instance for `seed`: six families, sizes kept small for
/// the sanitized build, every third one rescaled so times and works are
/// non-integral and share no denominator.
inline Instance generated(std::uint64_t seed) {
  const std::size_t jobs = 6 + seed % 11;
  const std::size_t machines = 1 + seed % 4;
  Instance instance = [&] {
    switch (seed / 3 % 6) {
      case 0:
        return generate_uniform({.jobs = jobs, .machines = machines, .horizon = 30,
                                 .max_window = 10, .max_work = 9},
                                seed);
      case 1:
        return generate_bursty({.bursts = 1 + seed % 3, .jobs_per_burst = 2 + jobs / 3,
                                .machines = machines, .horizon = 30},
                               seed);
      case 2:
        return generate_laminar(
            {.jobs = jobs, .machines = machines, .depth = 4, .max_work = 12}, seed);
      case 3:
        return generate_agreeable({.jobs = jobs, .machines = machines, .horizon = 25},
                                  seed);
      case 4:
        return generate_periodic({.tasks = 2 + seed % 3, .machines = machines}, seed);
      default:
        return generate_heavy_tail(
            {.jobs = jobs, .machines = machines, .horizon = 40, .max_work = 32}, seed);
    }
  }();
  if (seed % 3 == 0) {
    instance = scale_work(scale_time(instance, Q(1009, 997)), Q(101, 103));
  }
  return instance;
}

/// On 2 machines, job 0's window [1, 1 + 1e-20) rounds to an empty double
/// interval: the fast engine rejects it, so the exact engine's guide fails.
inline Instance vanishing_window() {
  return Instance(
      std::vector<Job>{
          Job{Q(1), Q(1) + Q::from_string("1/100000000000000000000"), Q(1)},
          Job{Q(0), Q(4), Q(2)}, Job{Q(0), Q(2), Q(1)}},
      2);
}

}  // namespace mpss::corpus
