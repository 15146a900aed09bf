// Starting the daemon, driving it over loopback, and checking the replies.
//
// exact_cold and hit_wire are closed loops of SolveClient round trips (each
// connection sends its next request only after the previous reply). mixed_open
// is an open loop over raw frames: per connection one sender thread writes
// each request at its scheduled time and one receiver thread reads the FIFO
// replies, so a slow daemon builds a queue instead of slowing the generator.
// Every reply is checked after the timed window closes (hit_wire checks each
// reply between round trips, outside the timed intervals), so checking never
// adds to a measured latency.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "mpss/net/client.hpp"
#include "mpss/net/framing.hpp"
#include "mpss/net/protocol.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/obs/span.hpp"
#include "servebench.hpp"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;
using mpss::SolveResult;
using mpss::net::SolveClient;

constexpr const char* kHost = "127.0.0.1";
/// Socket timeout of every client connection: a hung daemon fails the run
/// instead of hanging it.
constexpr std::int64_t kIoTimeoutMs = 60'000;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

SolveClient connect_client(std::uint16_t port) {
  mpss::net::SolveClientOptions options;
  options.io_timeout_ms = kIoTimeoutMs;
  return SolveClient(kHost, port, options);
}

/// A raw loopback connection for the open loop (frames, no client logic).
mpss::net::ScopedFd connect_raw(std::uint16_t port) {
  mpss::net::ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, kHost, &address.sin_addr);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  }
  // The generator pipelines requests, so Nagle would hold each request until
  // the previous one's ACK: a client-side delay that is not the daemon's.
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  mpss::net::set_recv_timeout(fd.get(), kIoTimeoutMs, "servebench");
  mpss::net::set_send_timeout(fd.get(), kIoTimeoutMs, "servebench");
  return fd;
}

/// One reply of a timed pass, kept for the checks after the window.
struct Reply {
  std::size_t index = 0;  // request index in the workload's sequence
  std::optional<SolveResult> result;  // empty on a transport/protocol failure
  std::string error;
  double latency_ms = 0.0;
  double end_s = 0.0;  // completion, seconds into the timed window
};

/// Bit-identity of two results: status, detail, energy bits and every slice.
bool identical(const SolveResult& a, const SolveResult& b) {
  if (a.status != b.status || a.error_detail != b.error_detail ||
      std::bit_cast<std::uint64_t>(a.energy) != std::bit_cast<std::uint64_t>(b.energy) ||
      a.schedule.index() != b.schedule.index()) {
    return false;
  }
  if (const mpss::Schedule* x = a.exact_schedule()) {
    const mpss::Schedule* y = b.exact_schedule();
    if (x->machines() != y->machines()) return false;
    for (std::size_t m = 0; m < x->machines(); ++m) {
      if (!std::ranges::equal(x->machine(m), y->machine(m))) return false;
    }
  }
  if (const mpss::FastSchedule* x = a.fast_schedule()) {
    const mpss::FastSchedule* y = b.fast_schedule();
    auto bits = [](const mpss::FastSlice& slice) {
      return std::array{std::bit_cast<std::uint64_t>(slice.start),
                        std::bit_cast<std::uint64_t>(slice.end),
                        std::bit_cast<std::uint64_t>(slice.speed),
                        static_cast<std::uint64_t>(slice.job)};
    };
    if (x->machines.size() != y->machines.size()) return false;
    for (std::size_t m = 0; m < x->machines.size(); ++m) {
      if (!std::ranges::equal(x->machines[m], y->machines[m], {}, bits, bits)) return false;
    }
  }
  return true;
}

/// The checks every reply must pass; an empty string means it passed.
/// Exact energies are compared with the fast engine as mpss_fuzz
/// --differential does (1e-6 relative).
std::string check_reply(const RequestSpec& spec, const SolveResult& result) {
  if (!result.ok()) {
    return std::string("status ") + mpss::solve_status_name(result.status) + ": " +
           result.error_detail;
  }
  const bool fast = spec.engine == mpss::Engine::kFast;
  if ((fast ? result.fast_schedule() == nullptr : result.exact_schedule() == nullptr)) {
    return "reply carries no schedule of the engine's type";
  }
  if (std::size_t violations = result.violations(spec.instance); violations != 0) {
    return "schedule has " + std::to_string(violations) + " violations";
  }
  if (spec.engine == mpss::Engine::kExact) {
    mpss::SolveOptions options;
    options.engine = mpss::Engine::kFast;
    SolveResult reference = mpss::solve(spec.instance, options);
    if (!reference.ok() ||
        std::fabs(reference.energy - result.energy) > 1e-6 * std::max(1.0, result.energy)) {
      return "exact energy " + std::to_string(result.energy) +
             " disagrees with the fast engine's " + std::to_string(reference.energy);
    }
  }
  return {};
}

/// Checks stored replies on a few threads (the daemon is down by now, so the
/// cores are free), recording a failed check as the reply's error.
/// `spec_of` maps a reply to the request it answers.
template <typename SpecOf>
void check_replies(std::vector<Reply>& replies, SpecOf spec_of) {
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < replies.size();) {
      Reply& reply = replies[i];
      if (!reply.result || !reply.error.empty()) continue;
      try {
        reply.error = check_reply(spec_of(reply.index), *reply.result);
      } catch (const std::exception& error) {
        // The reference solve threw (an InternalError): the reply is unverified.
        reply.error = std::string("check failed to run: ") + error.what();
      }
    }
  };
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::jthread> pool;
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(worker);
  worker();
}

/// Sends `spec` through `client`, timing only the round trip.
Reply round_trip(SolveClient& client, const RequestSpec& spec, std::size_t index) {
  Reply reply;
  reply.index = index;
  const Clock::time_point start = Clock::now();
  try {
    reply.result = client.solve(spec.instance, spec.options(), 0, spec.deadline_ms);
  } catch (const std::exception& error) {
    reply.error = error.what();  // ProtocolError, FrameError, runtime_error
  }
  reply.latency_ms = ms_between(start, Clock::now());
  return reply;
}

/// Counts one checked reply: attempted, and failed when it has no result or
/// carries an error (a non-ok status or a failed check).
void tally(PassResult& pass, const Reply& reply) {
  ++pass.attempted;
  const bool ok = reply.result && reply.error.empty();
  pass.samples.push_back({reply.end_s, reply.latency_ms, ok});
  if (ok) return;
  ++pass.failed;
  if (reply.result) {
    if (reply.result->status == mpss::SolveStatus::kDeadlineExceeded) {
      ++pass.deadline_exceeded;
    } else if (reply.result->ok()) {
      ++pass.check_failures;
    }
  }
  if (pass.first_errors.size() < 5) {
    pass.first_errors.push_back("request " + std::to_string(reply.index) + ": " +
                                reply.error);
  }
}

/// exact_cold: connections pull the next distinct request index from a shared
/// counter until the window closes, generating each request outside its
/// round trip; replies are checked afterwards.
void run_exact_cold(std::uint64_t seed, double seconds, Setup& setup, PassResult& pass) {
  const std::uint16_t port = setup.server->port();
  const std::size_t connections = connections_for(Workload::kExactCold);
  std::vector<SolveClient> clients;
  for (std::size_t c = 0; c < connections; ++c) clients.push_back(connect_client(port));
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Reply>> per_connection(connections);
  const Clock::time_point start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> loops;
    for (std::size_t c = 0; c < connections; ++c) {
      loops.emplace_back([&, c] {
        while (Clock::now() < stop) {
          const std::size_t index = next.fetch_add(1);
          const RequestSpec spec = exact_cold_request(seed, index);
          Reply reply = round_trip(clients[c], spec, index);
          reply.end_s = std::chrono::duration<double>(Clock::now() - start).count();
          per_connection[c].push_back(std::move(reply));
        }
      });
    }
  }
  setup.server->shutdown();
  std::vector<Reply> replies;
  for (auto& list : per_connection) {
    for (Reply& reply : list) replies.push_back(std::move(reply));
  }
  check_replies(replies, [&](std::size_t index) { return exact_cold_request(seed, index); });
  for (const Reply& reply : replies) tally(pass, reply);
}

/// hit_wire: one connection cycles through the hot set; each reply is checked
/// for bit-identity with the in-process reference between round trips, and
/// the check time is excluded from the window.
void run_hit_wire(double seconds, Setup& setup, PassResult& pass) {
  SolveClient client = connect_client(setup.server->port());
  const Clock::time_point start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
  double check_s = 0.0;
  for (std::size_t index = 0; Clock::now() < stop; ++index) {
    const std::size_t hot = index % setup.requests.size();
    Reply reply = round_trip(client, setup.requests[hot], index);
    const Clock::time_point check_start = Clock::now();
    // The window's clock stops while replies are checked.
    reply.end_s = std::chrono::duration<double>(check_start - start).count() - check_s;
    if (reply.result && !identical(*reply.result, setup.references[hot])) {
      reply.error = "reply differs from the in-process solve()";
    }
    tally(pass, reply);
    check_s += std::chrono::duration<double>(Clock::now() - check_start).count();
  }
  setup.server->shutdown();
}

/// mixed_open: request i goes out on connection i % connections at its
/// scheduled time; its latency runs from that scheduled time to the decoded
/// reply, so a stalled generator still charges the wait to the requests.
void run_mixed_open(Setup& setup, PassResult& pass) {
  const std::vector<RequestSpec>& schedule = setup.requests;
  const std::size_t connections = connections_for(Workload::kMixedOpen);
  std::vector<mpss::net::ScopedFd> sockets;
  for (std::size_t c = 0; c < connections; ++c) sockets.push_back(connect_raw(setup.server->port()));
  std::vector<Reply> replies(schedule.size());
  std::vector<double> lag_ms(schedule.size(), 0.0);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(schedule[i].arrival_s));
  };
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < connections; ++c) {
      // Sender: writes each of its requests when due.
      threads.emplace_back([&, c] {
        try {
          for (std::size_t i = c; i < schedule.size(); i += connections) {
            std::this_thread::sleep_until(due(i));
            lag_ms[i] = ms_between(due(i), Clock::now());
            // Traced runs: the daemon's net.request span parents under this one.
            mpss::obs::SpanScope span(nullptr, "loadgen.send");
            mpss::net::Request request;
            if (span.active()) {
              request.trace_id = mpss::obs::Registry::global().next_trace_id();
              request.parent_span = span.id();
            }
            request.id = i + 1;
            request.verb = mpss::net::Verb::kSolve;
            request.instances.push_back(schedule[i].instance);
            request.options = schedule[i].options();
            request.deadline_ms = schedule[i].deadline_ms;
            mpss::net::write_frame(sockets[c].get(), mpss::net::encode_request(request));
          }
        } catch (const std::exception&) {
          // The receiver sees the torn connection and fails what is left.
          ::shutdown(sockets[c].get(), SHUT_RDWR);
        }
      });
      // Receiver: replies arrive in request order on each connection.
      threads.emplace_back([&, c] {
        std::string payload;
        for (std::size_t i = c; i < schedule.size(); i += connections) {
          Reply& reply = replies[i];
          reply.index = i;
          mpss::obs::SpanScope span(nullptr, "loadgen.receive");
          try {
            // ACK each reply at once. The daemon does not set TCP_NODELAY, so
            // with delayed ACKs Nagle holds every later reply on a busy
            // connection until the next request piggybacks the ACK: ~6 ms
            // added to the p50 and a p99 that swings 40% run to run.
            const int one = 1;
            ::setsockopt(sockets[c].get(), IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
            if (!mpss::net::read_frame(sockets[c].get(), payload)) {
              throw std::runtime_error("daemon closed the connection");
            }
            mpss::net::Response response = mpss::net::decode_response(payload);
            if (response.id != i + 1) throw std::runtime_error("reply out of order");
            if (!response.ok) {
              throw mpss::net::ProtocolError(response.code, response.detail);
            }
            if (response.results.size() != 1) throw std::runtime_error("reply has no result");
            reply.result = std::move(response.results.front());
          } catch (const std::exception& error) {
            reply.error = error.what();
          }
          const Clock::time_point done = Clock::now();
          reply.latency_ms = ms_between(due(i), done);
          reply.end_s = std::chrono::duration<double>(done - start).count();
        }
      });
    }
  }
  pass.lag_ms = std::move(lag_ms);
  setup.server->shutdown();

  // Repeats of one request must be answered identically (first send or
  // cache hit alike).
  std::unordered_map<std::uint64_t, const SolveResult*> first;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (!replies[i].result || !replies[i].result->ok()) continue;
    const std::uint64_t key = schedule[i].instance.fingerprint() * 31 +
                              static_cast<std::uint64_t>(schedule[i].engine);
    auto [it, inserted] = first.emplace(key, &*replies[i].result);
    if (!inserted && !identical(*it->second, *replies[i].result)) {
      replies[i].error = "repeat answered differently from its first send";
    }
  }
  check_replies(replies, [&](std::size_t index) { return schedule[index]; });
  for (const Reply& reply : replies) {
    tally(pass, reply);
    const RequestSpec& spec = schedule[reply.index];
    pass.latencies_by_class[spec.repeat ? "repeat" : mpss::engine_name(spec.engine)]
        .push_back(reply.latency_ms);
  }
}

mpss::obs::HistogramData histogram_delta(const mpss::obs::HistogramData& after,
                                         const mpss::obs::HistogramData& before) {
  mpss::obs::HistogramData delta = after;
  for (std::size_t b = 0; b < delta.buckets.size(); ++b) delta.buckets[b] -= before.buckets[b];
  delta.count -= before.count;
  delta.sum -= before.sum;
  delta.min = 0;  // quantile() clamps to [min, max]; keep the clamp loose
  return delta;
}

}  // namespace

Setup set_up(Workload workload, std::uint64_t seed, double seconds) {
  Setup setup;
  mpss::net::SolveServerOptions options;
  options.service.threads = kDaemonWorkers;
  options.service.cache_capacity = cache_capacity_for(workload);
  setup.server = std::make_unique<mpss::net::SolveServer>(options);

  switch (workload) {
    case Workload::kExactCold:
      break;
    case Workload::kHitWire:
      setup.requests = hit_wire_hot_set(seed);
      for (const RequestSpec& spec : setup.requests) {
        setup.references.push_back(mpss::solve(spec.instance, spec.options()));
      }
      break;
    case Workload::kMixedOpen:
      setup.requests = mixed_open_schedule(seed, seconds);
      break;
  }

  // Warm the daemon: its workers' arenas, and for hit_wire the cache. Each
  // engine's requests go out as one solve_many so both workers take part.
  std::vector<RequestSpec> warm = warmup_requests(workload);
  if (workload == Workload::kHitWire) warm = setup.requests;
  SolveClient client = connect_client(setup.server->port());
  for (mpss::Engine engine : {mpss::Engine::kExact, mpss::Engine::kFast, mpss::Engine::kOa}) {
    std::vector<mpss::Instance> batch;
    for (const RequestSpec& spec : warm) {
      if (spec.engine == engine) batch.push_back(spec.instance);
    }
    if (batch.empty()) continue;
    mpss::SolveOptions solve_options;
    solve_options.engine = engine;
    for (const SolveResult& result : client.solve_many(batch, solve_options)) {
      if (!result.ok()) {
        throw std::runtime_error(std::string("warm-up solve failed: ") + result.error_detail);
      }
    }
  }
  return setup;
}

PassResult run_pass(Workload workload, std::uint64_t seed, double seconds, Setup& setup) {
  mpss::obs::Registry& registry = mpss::obs::Registry::global();
  mpss::obs::Histogram& queue_wait = registry.histogram("service.queue_wait_us");
  const mpss::obs::Counters counters_before = registry.snapshot();
  const mpss::obs::HistogramData wait_before = queue_wait.snapshot();
  const mpss::BatchSolver::CacheStats cache_before = setup.server->solver().cache_stats();

  PassResult pass;
  switch (workload) {
    case Workload::kExactCold:
      run_exact_cold(seed, seconds, setup, pass);
      break;
    case Workload::kHitWire:
      run_hit_wire(seconds, setup, pass);
      break;
    case Workload::kMixedOpen:
      run_mixed_open(setup, pass);
      break;
  }
  // The daemon is shut down (drained) by now; its service object and the
  // Registry stay readable until the Setup is destroyed.
  const mpss::BatchSolver::CacheStats cache = setup.server->solver().cache_stats();
  pass.cache_hits = cache.hits - cache_before.hits;
  pass.cache_misses = cache.misses - cache_before.misses;
  pass.cache_evictions = cache.evictions - cache_before.evictions;
  const mpss::obs::HistogramData wait = histogram_delta(queue_wait.snapshot(), wait_before);
  pass.queue_wait_p50_us = wait.quantile(0.50);
  pass.queue_wait_p99_us = wait.quantile(0.99);
  const mpss::obs::Counters counters_after = registry.snapshot();
  pass.retries = counters_after.value("net.retries") - counters_before.value("net.retries");
  pass.timeouts = counters_after.value("net.timeouts") - counters_before.value("net.timeouts");
  return pass;
}

Summary summarize(const PassResult& pass) {
  std::vector<Sample> samples = pass.samples;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.end_s < b.end_s; });
  const std::size_t n = samples.size();
  Summary summary;
  summary.windows = std::clamp<std::size_t>(n / 1000, 1, 15);
  std::vector<double> p50, p99, throughput;
  double window_start = 0.0;
  for (std::size_t w = 0; w < summary.windows && n != 0; ++w) {
    const std::size_t begin = w * n / summary.windows;
    const std::size_t end = (w + 1) * n / summary.windows;
    std::vector<double> latencies;
    std::size_t ok = 0;
    for (std::size_t i = begin; i < end; ++i) {
      latencies.push_back(samples[i].latency_ms);
      ok += samples[i].ok ? 1 : 0;
    }
    p50.push_back(quantile(latencies, 0.50));
    p99.push_back(quantile(latencies, 0.99));
    const double window_end = samples[end - 1].end_s;
    if (window_end > window_start) {
      throughput.push_back(static_cast<double>(ok) / (window_end - window_start));
    }
    window_start = window_end;
  }
  summary.p50_ms = quantile(p50, 0.5);
  summary.p99_ms = quantile(p99, 0.5);
  summary.throughput_rps = quantile(throughput, 0.5);
  const std::size_t per_window = n / summary.windows;
  summary.samples_beyond_p99 =
      per_window - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(per_window)));
  return summary;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

}  // namespace servebench
