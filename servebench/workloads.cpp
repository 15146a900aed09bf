// Request sequences of the three workloads. Every sequence is a pure function
// of the seed, so the same seed yields the same instances (equal fingerprints)
// in the same order, across runs and processes.

#include <cmath>

#include "mpss/util/fnv.hpp"
#include "mpss/util/random.hpp"
#include "mpss/workload/generators.hpp"
#include "mpss/workload/transform.hpp"
#include "servebench.hpp"

namespace servebench {
namespace {

using mpss::Engine;
using mpss::Instance;

enum class Family { kUniform, kBursty, kLaminar, kHeavyTail };

/// Independent substreams of one seed: one per use, so adding requests to
/// one workload never shifts another's sequence.
enum Stream : std::uint64_t { kColdStream = 1, kHotStream, kMixedStream, kWarmStream };

/// The generator seed of item `index` of `stream`.
std::uint64_t derive(std::uint64_t seed, Stream stream, std::uint64_t index) {
  return mpss::fnv_mix(mpss::fnv_mix(mpss::fnv_mix(mpss::kFnvOffset, seed), stream), index);
}

constexpr std::size_t kMachines = 4;

/// The generator families at n jobs on 4 machines, sized as the repo's
/// trace_tool sizes them (horizon 3n, short windows, works up to 8; heavy-tail
/// works up to 64).
Instance family_instance(Family family, std::size_t n, std::uint64_t seed) {
  const auto horizon = 3 * static_cast<std::int64_t>(n);
  switch (family) {
    case Family::kUniform:
      return mpss::generate_uniform({.jobs = n, .machines = kMachines,
                                     .horizon = horizon, .max_window = 10,
                                     .max_work = 8},
                                    seed);
    case Family::kBursty:
      return mpss::generate_bursty({.bursts = n / 4, .jobs_per_burst = 4,
                                    .machines = kMachines, .horizon = horizon,
                                    .burst_window = 6, .max_work = 8},
                                   seed);
    case Family::kLaminar:
      return mpss::generate_laminar(
          {.jobs = n, .machines = kMachines, .depth = 4, .max_work = 8}, seed);
    case Family::kHeavyTail:
      return mpss::generate_heavy_tail({.jobs = n, .machines = kMachines,
                                        .horizon = horizon, .shape = 1.5,
                                        .max_work = 64},
                                       seed);
  }
  return mpss::generate_uniform({}, seed);
}

/// Non-integral rescaling: forces the BigInt layer off its small path.
Instance rescaled(const Instance& instance) {
  return mpss::scale_work(mpss::scale_time(instance, mpss::Q(1009, 997)),
                          mpss::Q(101, 103));
}

RequestSpec exact_request(Instance instance) {
  return RequestSpec{.instance = std::move(instance), .engine = Engine::kExact};
}

}  // namespace

std::optional<Workload> workload_from_name(std::string_view name) {
  if (name == "exact_cold") return Workload::kExactCold;
  if (name == "hit_wire") return Workload::kHitWire;
  if (name == "mixed_open") return Workload::kMixedOpen;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kExactCold: return "exact_cold";
    case Workload::kHitWire: return "hit_wire";
    case Workload::kMixedOpen: return "mixed_open";
  }
  return "unknown";
}

std::size_t connections_for(Workload workload) {
  return workload == Workload::kHitWire ? 1 : 2;
}

std::size_t cache_capacity_for(Workload workload) {
  return workload == Workload::kMixedOpen ? 64 : 128;
}

mpss::SolveOptions RequestSpec::options() const {
  mpss::SolveOptions options;
  options.engine = engine;
  return options;
}

RequestSpec exact_cold_request(std::uint64_t seed, std::size_t index) {
  const auto family = static_cast<Family>(index % 4);
  Instance instance = family_instance(family, 64, derive(seed, kColdStream, index));
  if ((index / 4) % 4 == 3) instance = rescaled(instance);
  return exact_request(std::move(instance));
}

std::vector<RequestSpec> hit_wire_hot_set(std::uint64_t seed) {
  std::vector<RequestSpec> hot;
  for (std::size_t i = 0; i < 8; ++i) {
    hot.push_back(exact_request(family_instance(static_cast<Family>(i % 4), 64,
                                                derive(seed, kHotStream, i))));
  }
  return hot;
}

std::vector<RequestSpec> mixed_open_schedule(std::uint64_t seed, double seconds) {
  mpss::Xoshiro256 rng(derive(seed, kMixedStream, 0));
  const std::size_t window = 2 * cache_capacity_for(Workload::kMixedOpen);
  std::vector<RequestSpec> schedule;
  std::vector<std::size_t> distinct;  // indices of first sends
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform01()) / kMixedRate;
    if (t >= seconds) break;
    RequestSpec spec;
    if (!distinct.empty() && rng.bernoulli(0.30)) {
      const std::size_t lo = distinct.size() > window ? distinct.size() - window : 0;
      spec = schedule[distinct[lo + rng.below(distinct.size() - lo)]];
      spec.repeat = true;
    } else {
      const double u = rng.uniform01();
      const std::uint64_t instance_seed = rng();
      if (u < 0.58) {
        spec.instance = family_instance(static_cast<Family>(rng.below(4)), 64, instance_seed);
        spec.engine = Engine::kFast;
      } else if (u < 0.81) {
        spec.instance = family_instance(static_cast<Family>(rng.below(4)), 32, instance_seed);
        spec.engine = Engine::kExact;
      } else {
        // OA only on uniform and bursty: on laminar or heavy-tail instances one
        // OA solve takes 0.1-1.3 s and would alone set the p99.
        spec.instance = family_instance(static_cast<Family>(rng.below(2)), 32, instance_seed);
        spec.engine = Engine::kOa;
      }
      distinct.push_back(schedule.size());
    }
    spec.deadline_ms = kMixedDeadlineMs;
    spec.arrival_s = t;
    schedule.push_back(std::move(spec));
  }
  return schedule;
}

std::vector<RequestSpec> warmup_requests(Workload workload) {
  std::vector<RequestSpec> warm;
  auto add = [&](Family family, std::size_t n, Engine engine) {
    RequestSpec spec;
    spec.instance = family_instance(family, n, derive(0, kWarmStream, warm.size()));
    spec.engine = engine;
    warm.push_back(std::move(spec));
  };
  switch (workload) {
    case Workload::kExactCold:
      add(Family::kUniform, 64, Engine::kExact);
      add(Family::kBursty, 64, Engine::kExact);
      break;
    case Workload::kHitWire:
      break;  // warming the cache with the hot set warms the arenas too
    case Workload::kMixedOpen:
      add(Family::kUniform, 64, Engine::kFast);
      add(Family::kBursty, 64, Engine::kFast);
      add(Family::kUniform, 32, Engine::kExact);
      add(Family::kBursty, 32, Engine::kOa);
      break;
  }
  return warm;
}

std::vector<RequestSpec> request_prefix(Workload workload, std::uint64_t seed,
                                        std::size_t count) {
  std::vector<RequestSpec> prefix;
  switch (workload) {
    case Workload::kExactCold:
      for (std::size_t i = 0; i < count; ++i) prefix.push_back(exact_cold_request(seed, i));
      break;
    case Workload::kHitWire:
      prefix = hit_wire_hot_set(seed);
      break;
    case Workload::kMixedOpen:
      // A schedule's prefix does not depend on its length, so generate a span
      // comfortably longer than `count` arrivals need and cut it.
      prefix = mixed_open_schedule(seed, 2.0 * static_cast<double>(count) / kMixedRate + 1.0);
      break;
  }
  if (prefix.size() > count) prefix.resize(count);
  return prefix;
}

std::uint64_t sequence_digest(const std::vector<RequestSpec>& requests) {
  std::uint64_t hash = mpss::kFnvOffset;
  for (const RequestSpec& spec : requests) {
    hash = mpss::fnv_mix(hash, spec.instance.fingerprint());
    hash = mpss::fnv_mix(hash, static_cast<std::uint64_t>(spec.engine));
    hash = mpss::fnv_mix(hash, static_cast<std::uint64_t>(spec.deadline_ms));
    hash = mpss::fnv_mix(hash, spec.arrival_s);
  }
  return hash;
}

}  // namespace servebench
