#pragma once
// servebench: the serving benchmark of the mpss solve daemon.
//
// One binary starts an in-process net::SolveServer, drives it over loopback,
// checks every reply, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) as one JSON line. Everything is measured from outside
// the library: by timing calls into each module's public functions and by
// reading the counters and histograms the program already exports through
// obs::Registry. README.md in this directory describes the workloads and the
// metric map.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mpss/core/job.hpp"
#include "mpss/net/server.hpp"
#include "mpss/solve.hpp"

namespace servebench {

// ---------------------------------------------------------------------------
// Workloads (workloads.cpp). Every request sequence is a pure function of the
// seed: the same seed gives the same instances in the same order.

enum class Workload { kExactCold, kHitWire, kMixedOpen };

[[nodiscard]] std::optional<Workload> workload_from_name(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);

/// Daemon workers and client connections per workload: at most 2 + 2, so the
/// client and daemon threads that do work fit a 4-core host.
inline constexpr std::size_t kDaemonWorkers = 2;
[[nodiscard]] std::size_t connections_for(Workload workload);
/// LRU entries of the daemon's result cache.
[[nodiscard]] std::size_t cache_capacity_for(Workload workload);

/// mixed_open's offered load: Poisson arrivals at this rate (requests/s).
/// The request mix costs ~3 ms of engine time per request, so the 2 workers
/// spend ~22% of their time in engines. At 200 req/s repeated runs spread
/// 12% on the p50 and up to 18% on the p99, against 4-5% here.
inline constexpr double kMixedRate = 150.0;
/// Soft deadline carried by every mixed_open request.
inline constexpr std::int64_t kMixedDeadlineMs = 5000;

/// One request the load generator sends.
struct RequestSpec {
  mpss::Instance instance{{}, 1};
  mpss::Engine engine = mpss::Engine::kExact;
  std::int64_t deadline_ms = 0;  // 0 = none
  double arrival_s = 0.0;        // open loop: scheduled send time after start
  bool repeat = false;           // mixed_open: re-sends an earlier request

  [[nodiscard]] mpss::SolveOptions options() const;
};

/// exact_cold request `index`: a distinct n=64, m=4 exact-engine instance.
/// Families rotate uniform, bursty, laminar, heavy-tail; every fourth block of
/// four is rescaled by time x 1009/997 and work x 101/103.
[[nodiscard]] RequestSpec exact_cold_request(std::uint64_t seed, std::size_t index);

/// hit_wire's hot set: 8 exact n=64 instances, one per family twice over.
[[nodiscard]] std::vector<RequestSpec> hit_wire_hot_set(std::uint64_t seed);

/// mixed_open's request schedule over [0, seconds): Poisson arrivals at
/// kMixedRate; new requests are ~58% fast n=64, ~23% exact n=32 and ~19% OA
/// n=32 (uniform and bursty only); ~30% of arrivals repeat one of the last
/// 2 x cache_capacity distinct requests.
[[nodiscard]] std::vector<RequestSpec> mixed_open_schedule(std::uint64_t seed,
                                                           double seconds);

/// Warm-up requests that never occur in a timed pass (distinct instances), so
/// setup can warm the daemon's arenas without touching the timed cache state.
/// They do not depend on the seed, so set-up cost does not vary with it.
[[nodiscard]] std::vector<RequestSpec> warmup_requests(Workload workload);

/// The first `count` requests of a workload's sequence (the layer probe's
/// sample and the determinism test's subject).
[[nodiscard]] std::vector<RequestSpec> request_prefix(Workload workload,
                                                      std::uint64_t seed,
                                                      std::size_t count);

/// FNV-1a digest of a request sequence: instance fingerprints, engines,
/// deadlines and arrival times.
[[nodiscard]] std::uint64_t sequence_digest(const std::vector<RequestSpec>& requests);

// ---------------------------------------------------------------------------
// Driving the daemon (drive.cpp).

/// A started daemon plus the workload inputs prepared for one timed pass.
struct Setup {
  std::unique_ptr<mpss::net::SolveServer> server;
  /// hit_wire: the hot set. mixed_open: the full schedule. exact_cold: empty
  /// (its pass generates each distinct request between round trips).
  std::vector<RequestSpec> requests;
  /// hit_wire only: in-process solve() of each hot-set instance.
  std::vector<mpss::SolveResult> references;
};

/// Starts the daemon, generates the inputs, computes references and warms the
/// cache and arenas. The caller times this call.
[[nodiscard]] Setup set_up(Workload workload, std::uint64_t seed, double seconds);

/// One attempted request of a timed pass.
struct Sample {
  double end_s = 0.0;       // completion, in seconds of timed window
  double latency_ms = 0.0;  // open loop: from the scheduled send time
  bool ok = false;          // succeeded and passed its checks
};

/// What one timed pass produced.
struct PassResult {
  std::vector<Sample> samples;       // one per attempted request
  std::size_t attempted = 0;
  std::size_t failed = 0;            // transport, protocol, status or check
  std::size_t check_failures = 0;    // failed correctness checks (subset)
  std::size_t deadline_exceeded = 0;
  std::vector<double> lag_ms;        // open loop: send time minus schedule
  /// mixed_open: latencies split by engine, repeats apart ("fast", "exact",
  /// "oa", "repeat").
  std::map<std::string, std::vector<double>> latencies_by_class;
  // Daemon-side deltas over the timed window.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t queue_wait_p50_us = 0;  // log2-bucket estimates
  std::uint64_t queue_wait_p99_us = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::vector<std::string> first_errors;  // a few failure messages
};

/// Runs one timed pass for `seconds`, then shuts the daemon down and checks
/// every reply outside the timed window.
[[nodiscard]] PassResult run_pass(Workload workload, std::uint64_t seed,
                                  double seconds, Setup& setup);

/// The end-to-end figures of a pass. The samples, in completion order, are cut
/// into `windows` consecutive windows of equal count, as many as keep at least
/// 1000 samples each (so at least 10 lie beyond each window's p99), at most
/// 15; each figure is the median over the windows, so one burst of host noise
/// moves it by one window at most.
struct Summary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double throughput_rps = 0.0;  // successful requests per second of window
  std::size_t windows = 0;
  std::size_t samples_beyond_p99 = 0;  // per window
};
[[nodiscard]] Summary summarize(const PassResult& pass);

// ---------------------------------------------------------------------------
// Layer probe (probe.cpp): in-process timings of each layer's public
// functions over a workload's request sample, plus the engines' counters.

/// Named per-layer values (times in the unit the name says).
using Metrics = std::map<std::string, double>;

struct Probe {
  Metrics metrics;               // medians, byte sizes, summed counters
  std::vector<double> solve_us;  // in-process solve() time per sample request
};

/// Times every layer call `reps` times per sample request. With `spans` set
/// each call runs inside a "bench.<layer>" span of the attached trace sink.
[[nodiscard]] Probe probe_layers(const std::vector<RequestSpec>& sample, int reps,
                                 bool spans);

// ---------------------------------------------------------------------------
// Small statistics helpers shared by the files above.

/// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

}  // namespace servebench
