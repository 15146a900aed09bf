#include "mpss/net/client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "mpss/obs/registry.hpp"
#include "mpss/obs/span.hpp"

namespace mpss::net {
namespace {

/// connect() with an optional timeout: non-blocking connect, poll for
/// writability, then read the socket error back. `timeout_ms <= 0` keeps the
/// plain blocking connect (the OS default timeout).
ScopedFd connect_to(const std::string& host, std::uint16_t port,
                    std::int64_t timeout_ms) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw std::runtime_error(std::string("SolveClient: socket failed: ") +
                             std::strerror(errno));
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    throw std::runtime_error("SolveClient: '" + host +
                             "' is not a numeric IPv4 address");
  }
  auto fail = [&](const std::string& why) -> std::runtime_error {
    return std::runtime_error("SolveClient: connect to " + host + ":" +
                              std::to_string(port) + " failed: " + why);
  };

  if (timeout_ms <= 0) {
    int rc;
    do {
      rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                     sizeof address);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) throw fail(std::strerror(errno));
    return fd;
  }

  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK) < 0) {
    throw fail(std::string("fcntl: ") + std::strerror(errno));
  }
  int rc = ::connect(fd.get(), reinterpret_cast<const sockaddr*>(&address),
                     sizeof address);
  if (rc != 0 && errno != EINPROGRESS && errno != EINTR) {
    throw fail(std::strerror(errno));
  }
  if (rc != 0) {
    auto deadline = Deadline::after_ms(timeout_ms);
    for (;;) {
      std::int64_t left = deadline.remaining_ms();
      if (left == 0) {
        obs::Registry::global().add("net.timeouts");
        throw fail("connect timed out after " + std::to_string(timeout_ms) +
                   "ms");
      }
      pollfd poll_fd{fd.get(), POLLOUT, 0};
      int ready = ::poll(&poll_fd, 1, static_cast<int>(left));
      if (ready > 0) break;
      if (ready == 0) continue;  // re-check the absolute deadline
      if (errno == EINTR) continue;
      throw fail(std::string("poll: ") + std::strerror(errno));
    }
    int error = 0;
    socklen_t length = sizeof error;
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &error, &length) != 0) {
      throw fail(std::string("getsockopt: ") + std::strerror(errno));
    }
    if (error != 0) throw fail(std::strerror(error));
  }
  if (::fcntl(fd.get(), F_SETFL, flags) < 0) {
    throw fail(std::string("fcntl restore: ") + std::strerror(errno));
  }
  return fd;
}

/// Would a fresh connection plausibly succeed where this failure did not?
/// Oversize frames are deterministic protocol violations; everything else
/// (truncation, timeout, reset, io) is transient by assumption.
bool transient(const FrameError& error) {
  return error.kind() != FrameError::Kind::kOversize;
}

}  // namespace

SolveClient::SolveClient(const std::string& host, std::uint16_t port,
                         SolveClientOptions options)
    : host_(host),
      port_(port),
      options_(options),
      fd_(connect_to(host, port, options_.connect_timeout_ms)),
      jitter_state_(options_.retry.jitter_seed != 0
                        ? options_.retry.jitter_seed
                        : 0x9E3779B97F4A7C15ull) {
  if (options_.io_timeout_ms > 0) {
    set_recv_timeout(fd_.get(), options_.io_timeout_ms, "SolveClient");
    set_send_timeout(fd_.get(), options_.io_timeout_ms, "SolveClient");
  }
}

void SolveClient::reconnect(const Deadline& budget) {
  fd_.close();
  std::int64_t timeout = budget.clamp_ms(options_.connect_timeout_ms);
  fd_ = connect_to(host_, port_, timeout);
  if (options_.io_timeout_ms > 0) {
    set_recv_timeout(fd_.get(), options_.io_timeout_ms, "SolveClient");
    set_send_timeout(fd_.get(), options_.io_timeout_ms, "SolveClient");
  }
}

Response SolveClient::attempt(const Request& request, const Deadline& budget) {
  if (budget.expired()) {
    obs::Registry::global().add("net.timeouts");
    throw FrameError("SolveClient: request budget exhausted before send",
                     FrameError::Kind::kTimeout);
  }
  if (budget.armed()) {
    // Clamp each syscall to the remaining budget so a single hung recv cannot
    // outlive the request. remaining_ms() is > 0 here (expired() was false),
    // so the clamp never accidentally clears a timeout.
    std::int64_t per_op = budget.clamp_ms(options_.io_timeout_ms);
    set_recv_timeout(fd_.get(), per_op, "SolveClient");
    set_send_timeout(fd_.get(), per_op, "SolveClient");
  }
  write_frame(fd_.get(), encode_request(request), options_.max_frame_bytes);
  if (!read_frame(fd_.get(), buffer_, options_.max_frame_bytes)) {
    throw FrameError("SolveClient: server closed the connection",
                     FrameError::Kind::kTruncated);
  }
  // Bound the reply by the request: one result per instance, each on its
  // instance's machine count.
  std::vector<std::size_t> machines;
  machines.reserve(request.instances.size());
  for (const Instance& instance : request.instances) {
    machines.push_back(instance.machines());
  }
  std::optional<std::span<const std::size_t>> bound;
  if (request.verb == Verb::kSolve || request.verb == Verb::kSolveMany) {
    bound = machines;
  }
  Response response = decode_response(buffer_, bound);
  if (response.id != request.id) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "SolveClient: response id " +
                            std::to_string(response.id) +
                            " does not match request id " +
                            std::to_string(request.id));
  }
  if (!response.ok) throw ProtocolError(response.code, response.detail);
  return response;
}

Response SolveClient::roundtrip(Request request) {
  if (!fd_.valid()) {
    throw std::runtime_error("SolveClient: connection is closed");
  }
  request.id = next_id_++;
  // Trace context: reuse the caller's trace id when one is active; otherwise,
  // if this process traces at all (a sink is installed), start a fresh trace
  // so the server's spans still join up under this round trip. Untraced
  // processes skip all of this and the wire document stays header-free.
  std::uint64_t trace_id = obs::current_trace().trace_id;
  std::optional<obs::TraceContextScope> fresh_trace;
  if (trace_id == 0 && obs::Registry::global().sink() != nullptr) {
    trace_id = obs::Registry::global().next_trace_id();
    fresh_trace.emplace(obs::TraceContext{trace_id, 0, 0});
  }
  // One span over ALL attempts: a retried round trip is one logical request,
  // and the per-attempt "client.retry" events below land inside it.
  obs::SpanScope span(nullptr, "client.solve");
  if (span.active() && trace_id != 0) {
    request.trace_id = trace_id;
    request.parent_span = span.id();
  }

  // The shutdown verb is the one verb whose duplicate delivery has a side
  // effect (arming a second drain is harmless, but the first ack may have
  // been written to a connection we already abandoned -- the drain is in
  // flight and a retry would just race it). Everything else is idempotent:
  // solves are fingerprint-cached, stats/health/metrics are reads.
  const bool idempotent = request.verb != Verb::kShutdown;
  const int max_attempts =
      idempotent && options_.retry.max_attempts > 1 ? options_.retry.max_attempts
                                                    : 1;
  Deadline budget = Deadline::after_ms(options_.request_budget_ms);

  for (int attempt_number = 1;; ++attempt_number) {
    try {
      return attempt(request, budget);
    } catch (const FrameError& error) {
      if (error.kind() == FrameError::Kind::kTimeout) {
        obs::Registry::global().add("net.timeouts");
      }
      if (!transient(error) || attempt_number >= max_attempts ||
          budget.expired()) {
        throw;
      }
    } catch (const ProtocolError& error) {
      // Of the server-reported errors only queue_full is transient: the
      // admission queue drains, and re-submitting a fingerprinted request is
      // free if it actually ran. bad_request/unsupported_version are
      // deterministic; internal means a server bug; shutdown means the
      // daemon is leaving.
      if (error.code() != ErrorCode::kQueueFull ||
          attempt_number >= max_attempts || budget.expired()) {
        throw;
      }
    } catch (const std::runtime_error&) {
      // A reconnect inside an earlier retry failed; the next loop iteration
      // tries again (the daemon may be restarting behind us).
      if (attempt_number >= max_attempts || budget.expired()) throw;
    }

    // Backoff (full jitter), clamped so the sleep itself cannot blow the
    // budget, then retry on a FRESH connection -- the old stream has no
    // resync point after a partial frame.
    std::int64_t delay = backoff_full_jitter(
        attempt_number - 1, options_.retry.backoff_ms,
        options_.retry.backoff_max_ms, jitter_state_);
    // Plain min, NOT clamp_ms: a zero backoff draw means "retry now", and
    // clamp_ms would read it as "unlimited" and sleep the whole budget.
    if (budget.armed() && delay > budget.remaining_ms()) {
      delay = budget.remaining_ms();
    }
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    obs::Registry::global().add("net.retries");
    // a = attempt that failed, value carries nothing; the label's span
    // context ties it to this round trip's client.solve span.
    obs::emit(nullptr, obs::EventKind::kCounter, "client.retry",
              static_cast<std::uint64_t>(attempt_number));
    reconnect(budget);
  }
}

SolveResult SolveClient::solve(const Instance& instance,
                               const SolveOptions& options, int priority,
                               std::int64_t deadline_ms) {
  Request request;
  request.verb = Verb::kSolve;
  request.instances.push_back(instance);
  request.options = options;
  request.priority = priority;
  request.deadline_ms = deadline_ms;
  Response response = roundtrip(std::move(request));
  if (response.results.size() != 1) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "SolveClient: expected 1 result, got " +
                            std::to_string(response.results.size()));
  }
  return std::move(response.results.front());
}

std::vector<SolveResult> SolveClient::solve_many(
    std::span<const Instance> instances, const SolveOptions& options,
    int priority, std::int64_t deadline_ms) {
  Request request;
  request.verb = Verb::kSolveMany;
  request.instances.assign(instances.begin(), instances.end());
  request.options = options;
  request.priority = priority;
  request.deadline_ms = deadline_ms;
  Response response = roundtrip(std::move(request));
  if (response.results.size() != instances.size()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        "SolveClient: expected " +
                            std::to_string(instances.size()) +
                            " results, got " +
                            std::to_string(response.results.size()));
  }
  return std::move(response.results);
}

json::Value SolveClient::stats() {
  Request request;
  request.verb = Verb::kStats;
  return roundtrip(std::move(request)).payload.at("stats");
}

json::Value SolveClient::health() {
  Request request;
  request.verb = Verb::kHealth;
  return roundtrip(std::move(request)).payload.at("health");
}

std::string SolveClient::metrics() {
  Request request;
  request.verb = Verb::kMetrics;
  return roundtrip(std::move(request)).payload.at("metrics").as_string();
}

json::Value SolveClient::request_shutdown() {
  Request request;
  request.verb = Verb::kShutdown;
  return roundtrip(std::move(request)).payload.at("shutdown");
}

}  // namespace mpss::net
