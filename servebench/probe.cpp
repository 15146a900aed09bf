// The layer probe: times each layer's public functions on a workload's
// request sample, in process and with no socket, and sums the counters the
// engines already report in SolveStats. These are the per-layer numbers the
// traced run prints; the end-to-end numbers never come from here.

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>

#include "mpss/core/instance_json.hpp"
#include "mpss/net/protocol.hpp"
#include "mpss/obs/span.hpp"
#include "mpss/service/batch_solver.hpp"
#include "mpss/service/fingerprint.hpp"
#include "servebench.hpp"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;

/// Samples of one layer call, in microseconds, plus the span label it is
/// recorded under in the traced run.
struct Layer {
  const char* span;
  std::vector<double> us;

  /// Runs `call` once, timed; inside a span when `spans` is set.
  template <typename Call>
  auto time(bool spans, Call&& call) {
    std::optional<mpss::obs::SpanScope> scope;
    if (spans) scope.emplace(nullptr, span);
    const Clock::time_point start = Clock::now();
    auto result = call();
    us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - start).count());
    return result;
  }

  [[nodiscard]] double median() const { return quantile(us, 0.5); }
};

}  // namespace

Probe probe_layers(const std::vector<RequestSpec>& sample, int reps, bool spans) {
  Layer encode_request{"bench.net.encode_request", {}};
  Layer decode_request{"bench.net.decode_request", {}};
  Layer encode_results{"bench.net.encode_results", {}};
  Layer decode_response{"bench.net.decode_response", {}};
  Layer to_json{"bench.core.instance_to_json", {}};
  Layer from_json{"bench.core.instance_from_json", {}};
  Layer fingerprint{"bench.service.fingerprint", {}};
  Layer hit{"bench.service.hit", {}};
  Layer engine{"bench.engine.solve", {}};
  std::map<mpss::Engine, std::vector<double>> engine_ms;
  std::vector<double> request_bytes;
  std::vector<double> response_bytes;
  Metrics counts;
  double arena_bytes = 0.0;

  for (std::size_t i = 0; i < sample.size(); ++i) {
    const RequestSpec& spec = sample[i];
    const mpss::SolveOptions options = spec.options();

    // Engine: one solve per request; its SolveStats carry the engine, flow and
    // numeric-substrate counters of exactly this run.
    const mpss::SolveResult result =
        engine.time(spans, [&] { return mpss::solve(spec.instance, options); });
    engine_ms[spec.engine].push_back(engine.us.back() / 1000.0);
    const mpss::obs::SolveStats& stats = result.stats;
    counts["engine.phases"] += static_cast<double>(stats.phases);
    counts["engine.flow_computations"] += static_cast<double>(stats.flow_computations);
    counts["engine.flow_bfs_rounds"] += static_cast<double>(stats.flow_bfs_rounds);
    counts["engine.augmenting_paths"] += static_cast<double>(stats.flow_augmenting_paths);
    counts["engine.candidate_removals"] += static_cast<double>(stats.candidate_removals);
    counts["engine.oa_replans"] += static_cast<double>(stats.replans);
    for (const char* name : {"flow.warm_starts", "flow.resume_bfs", "flow.retracted_units",
                             "bigint.promotions", "bigint.small_hits", "rational.norm_small",
                             "mem.fallback_allocs"}) {
      counts[name] += static_cast<double>(stats.counters.value(name));
    }
    arena_bytes = std::max(arena_bytes,
                           static_cast<double>(stats.counters.value("mem.arena_bytes")));

    // Wire and instance codecs, fingerprint: `reps` calls each.
    mpss::net::Request request;
    request.id = i + 1;
    request.verb = mpss::net::Verb::kSolve;
    request.instances.push_back(spec.instance);
    request.options = options;
    request.deadline_ms = spec.deadline_ms;
    const std::span<const mpss::SolveResult> results(&result, 1);
    for (int r = 0; r < reps; ++r) {
      const std::string payload =
          encode_request.time(spans, [&] { return mpss::net::encode_request(request); });
      (void)decode_request.time(spans, [&] { return mpss::net::decode_request(payload); });
      const std::string reply = encode_results.time(
          spans, [&] { return mpss::net::encode_results_response(request.id, results); });
      (void)decode_response.time(spans, [&] { return mpss::net::decode_response(reply); });
      const std::string text =
          to_json.time(spans, [&] { return mpss::instance_to_json(spec.instance); });
      (void)from_json.time(spans, [&] { return mpss::instance_from_json(text); });
      (void)fingerprint.time(spans,
                             [&] { return mpss::solve_fingerprint(spec.instance, options); });
      if (r == 0) {
        request_bytes.push_back(static_cast<double>(payload.size()));
        response_bytes.push_back(static_cast<double>(reply.size()));
      }
    }
  }

  // Service hit path: a warm in-process BatchSolver answering from its cache
  // (fingerprint, LRU lookup and the submit -> worker -> future handoff).
  {
    mpss::BatchSolver service({.threads = kDaemonWorkers, .queue_capacity = 0,
                               .cache_capacity = 2 * sample.size() + 1});
    for (const RequestSpec& spec : sample) {
      (void)service.submit(spec.instance, spec.options()).future.get();
    }
    for (int r = 0; r < reps; ++r) {
      for (const RequestSpec& spec : sample) {
        (void)hit.time(spans, [&] {
          return service.submit(spec.instance, spec.options()).future.get();
        });
      }
    }
  }

  Metrics metrics = counts;
  metrics["mem.arena_bytes"] = arena_bytes;
  metrics["net.encode_request_us"] = encode_request.median();
  metrics["net.decode_request_us"] = decode_request.median();
  metrics["net.encode_results_us"] = encode_results.median();
  metrics["net.decode_response_us"] = decode_response.median();
  metrics["net.request_bytes"] = quantile(request_bytes, 0.5);
  metrics["net.response_bytes"] = quantile(response_bytes, 0.5);
  metrics["core.instance_to_json_us"] = to_json.median();
  metrics["core.instance_from_json_us"] = from_json.median();
  metrics["service.fingerprint_us"] = fingerprint.median();
  metrics["service.hit_us"] = hit.median();
  // Engines the sample never sends report 0.
  metrics["engine.exact_ms"] = quantile(engine_ms[mpss::Engine::kExact], 0.5);
  metrics["engine.fast_ms"] = quantile(engine_ms[mpss::Engine::kFast], 0.5);
  metrics["engine.oa_ms"] = quantile(engine_ms[mpss::Engine::kOa], 0.5);
  return Probe{std::move(metrics), std::move(engine.us)};
}

}  // namespace servebench
