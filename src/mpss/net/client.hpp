#pragma once
// Blocking client of the solve daemon (S45/S48, see DESIGN.md).
//
// SolveClient connects to a SolveServer and exposes the in-process facade's
// shape over the wire: solve() returns a SolveResult, solve_many() a vector in
// input order. Exact schedules travel as rational strings, so a decoded
// result is bit-identical to the in-process solve() on the same Instance --
// the property test_net pins down.
//
// The client is strictly synchronous and not thread-safe: one request on the
// wire at a time, per instance. Callers wanting pipelining open several
// clients (the daemon handles each connection independently) -- that is what
// bench_server does to measure 1..N-connection throughput.
//
// Time and failure (S48): SolveClientOptions arms the deadline hierarchy --
// a monotonic per-request budget over the whole round trip (reconnects and
// backoff sleeps included), socket send/recv timeouts (SO_SNDTIMEO /
// SO_RCVTIMEO) bounding each syscall beneath it, and a connect timeout. On a
// transport failure the client retries idempotent verbs on a fresh connection
// with full-jitter exponential backoff. Every solve request is content-
// fingerprinted by the daemon's result cache, so a retried solve that already
// executed is served from cache -- duplicates are safe AND cheap, which is
// what makes blind retry-on-timeout sound here. The shutdown verb is the one
// non-idempotent verb and is never retried. Retries bump the net.retries
// counter (net.timeouts for deadline expiries) and emit one "client.retry"
// trace event per attempt, so a retried round trip is visible in traces.
//
// Failure model: transport problems (connection refused, daemon gone, frame
// corruption, budget exhausted) throw FrameError or std::runtime_error after
// retries are spent; protocol-level errors reported by the server
// (queue_full, shutdown, bad_request, internal) throw ProtocolError carrying
// the wire ErrorCode -- of these only queue_full is transient, and it is the
// only one retried. Solve-level failures do NOT throw -- they come back as
// the result's status + error_detail, exactly as the facade reports them.
//
// Distributed tracing: when the process has a trace sink installed, every
// round trip runs inside a "client.solve" span and the protocol request
// carries that span's id plus the active trace id (allocating a fresh one
// when the caller has none), so the daemon's spans parent under the client's
// and `mpss_trace --chrome client.jsonl server.jsonl` joins the two sides
// into one tree. With no sink the request carries no trace header and the
// wire bytes are identical to an untraced build.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mpss/net/deadline.hpp"
#include "mpss/net/framing.hpp"
#include "mpss/net/protocol.hpp"

namespace mpss::net {

/// Retry schedule for idempotent verbs. Attempt 1 is the original request;
/// `max_attempts = 1` disables retries entirely.
struct RetryPolicy {
  int max_attempts = 3;
  /// Full-jitter exponential backoff between attempts: sleep uniform in
  /// [0, min(backoff_max_ms, backoff_ms * 2^(attempt-1))] milliseconds.
  std::int64_t backoff_ms = 10;
  std::int64_t backoff_max_ms = 2000;
  /// Seed of the jitter stream (reproducible under test). 0 re-seeds from the
  /// default splitmix64 constant.
  std::uint64_t jitter_seed = 0;
};

struct SolveClientOptions {
  /// Connect timeout in ms; <= 0 blocks on the OS default. Applies to the
  /// constructor's connect and to every retry reconnect.
  std::int64_t connect_timeout_ms = 0;
  /// Per-syscall socket timeout in ms (SO_RCVTIMEO + SO_SNDTIMEO); <= 0 means
  /// none. A recv that exceeds it surfaces as FrameError kTimeout.
  std::int64_t io_timeout_ms = 0;
  /// Monotonic budget for one whole round trip -- all attempts, reconnects,
  /// and backoff sleeps included; <= 0 means none. The effective per-syscall
  /// timeout is min(io_timeout_ms, remaining budget), so an armed budget
  /// implies socket timeouts even when io_timeout_ms is 0.
  std::int64_t request_budget_ms = 0;
  RetryPolicy retry;
  /// Per-frame payload ceiling, both directions.
  std::size_t max_frame_bytes = kMaxFrameBytes;
};

class SolveClient {
 public:
  /// Connects (numeric IPv4 only, matching the server). Throws
  /// std::runtime_error when the connection cannot be established within the
  /// options' connect timeout. The constructor itself does not retry --
  /// "daemon not there" should fail fast; retries cover failures that strike
  /// after a connection existed.
  SolveClient(const std::string& host, std::uint16_t port,
              SolveClientOptions options = SolveClientOptions{});

  SolveClient(SolveClient&&) noexcept = default;
  SolveClient& operator=(SolveClient&&) noexcept = default;
  SolveClient(const SolveClient&) = delete;
  SolveClient& operator=(const SolveClient&) = delete;

  /// Solves one instance on the daemon. `deadline_ms` (0 = none) is the soft
  /// deadline relative to the daemon's receipt; `priority` orders the daemon's
  /// admission queue. Only the wire-expressible knobs of `options` travel
  /// (engine and the serializable tuning fields; power/trace/cancel pointers
  /// stay local and are ignored).
  [[nodiscard]] SolveResult solve(const Instance& instance,
                                  const SolveOptions& options = SolveOptions{},
                                  int priority = 0,
                                  std::int64_t deadline_ms = 0);

  /// Solves a span of instances in one round trip; results in input order.
  [[nodiscard]] std::vector<SolveResult> solve_many(
      std::span<const Instance> instances,
      const SolveOptions& options = SolveOptions{}, int priority = 0,
      std::int64_t deadline_ms = 0);

  /// The daemon's stats payload (queue depth, cache counters, connections).
  [[nodiscard]] json::Value stats();

  /// The daemon's health payload ({"status":"ok","protocol":1}).
  [[nodiscard]] json::Value health();

  /// The daemon's metrics in Prometheus text exposition format (the same
  /// document `GET /metrics` serves when --metrics-port is enabled).
  [[nodiscard]] std::string metrics();

  /// Asks the daemon to drain and exit. Returns its ack payload; the daemon
  /// finishes every accepted request (including this connection's earlier
  /// ones) before closing. Never retried: the first attempt may have armed
  /// the drain even when its ack was lost.
  json::Value request_shutdown();

  /// Closes the connection. Outstanding daemon-side work for this connection
  /// is cancelled at its next engine checkpoint (cancellation on disconnect).
  void close() { fd_.close(); }

  [[nodiscard]] bool connected() const { return fd_.valid(); }

 private:
  [[nodiscard]] Response roundtrip(Request request);
  [[nodiscard]] Response attempt(const Request& request, const Deadline& budget);
  void reconnect(const Deadline& budget);

  std::string host_;
  std::uint16_t port_ = 0;
  SolveClientOptions options_;
  ScopedFd fd_;
  std::uint64_t next_id_ = 1;
  std::uint64_t jitter_state_ = 0;
  std::string buffer_;
};

}  // namespace mpss::net
