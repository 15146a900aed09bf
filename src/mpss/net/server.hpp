#pragma once
// TCP solve daemon (S45, see DESIGN.md): the network front of BatchSolver.
//
// SolveServer listens on a loopback TCP socket and speaks the framed JSON
// protocol of net/protocol.hpp. One acceptor thread hands each connection to a
// detached reader/writer thread pair:
//
//   * the reader decodes frames and blocking-submits into the embedded
//     BatchSolver, so the service's bounded admission queue backpressures the
//     socket itself (a flooding client stalls in submit(), it is never
//     buffered without bound);
//   * the writer resolves the connection's futures strictly in request order
//     (responses are FIFO per connection even though solves run concurrently
//     across the pool).
//
// A solve whose every instance hits the result cache is answered inside
// submit(), on the reader; the reader builds its reply from each cache
// entry's result object, written once per entry. A reply that needs nothing
// resolved (that one, a verb payload, an error) and has nothing queued ahead
// of it is written by the reader itself, so a hit crosses no thread. Both
// threads deliver through one path (resolve, account, log, write), and never
// at once: the writer writes only a queued entry, which stays queued until
// written, and the reader writes only while the queue is empty. Otherwise
// the entry joins the FIFO behind what is ahead of it.
//
// Service semantics carry over from S44 unchanged: priorities and soft
// deadlines travel as request hints, the LRU result cache is shared across
// connections, and a client that disconnects mid-flight has its outstanding
// solves cancelled through per-request CancelTokens (cancellation on
// disconnect). Teardown has one path: once the reader is done and the writer
// has drained the FIFO, the writer closes the socket and the connection leaves
// the live list. Graceful shutdown -- shutdown(), the destructor, or a client's
// "shutdown" verb -- stops the listener, half-closes every live connection's
// read side, and waits for that list to empty, so every already-accepted
// request is resolved and written first: no accepted future is ever dropped.
// A failed accept() is counted (net.accept_errors) and retried.
//
// Robustness (S48): readers run under per-connection read deadlines -- an
// optional idle timeout between requests and a frame timeout from a request's
// first byte to its last (the slowloris defense) -- and writers under
// SO_SNDTIMEO (accepted sockets also set TCP_NODELAY), so neither a
// byte-dribbling nor a never-reading peer can pin a thread forever. A per-connection inflight cap bounds the response FIFO: a
// client that pipelines past it is held in its own socket until the writer
// catches up. Every deadline expiry closes only the offending connection
// (bumping net.timeouts) and never drops an accepted future.
//
// Observability (S47): when a request carries the protocol's trace header the
// reader adopts that context, so the server's "net.request" span (and the
// "service.request" / engine spans under it) join the client's trace --
// net.request records the client's span as its remote parent, resolved by
// mpss_trace's multi-file merge. The "metrics" verb (and the standalone
// MetricsHttpServer) expose the Registry in Prometheus text format, and
// `slow_ms` turns on a structured one-line-JSON completion log for requests
// whose wall time meets the threshold.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "mpss/service/batch_solver.hpp"

namespace mpss::net {

struct SolveServerOptions {
  /// Numeric IPv4 address to bind ("127.0.0.1" keeps the daemon loopback-only;
  /// there is deliberately no hostname resolution here).
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Knobs of the embedded BatchSolver (workers, queue bound, cache size).
  BatchSolverOptions service;
  /// Per-frame payload ceiling, enforced on both directions.
  std::size_t max_frame_bytes = 32u << 20;
  /// How long a connection may sit idle between requests before the server
  /// closes it, in ms. 0 (the default) keeps connections open indefinitely --
  /// long-lived idle clients are legitimate here (bench harnesses, pools).
  std::int64_t idle_timeout_ms = 0;
  /// Ceiling on the wall time from a request frame's first byte to its last,
  /// in ms; <= 0 disables. The slowloris defense: a peer dribbling one byte a
  /// minute is cut off after this long, instead of pinning a reader forever.
  std::int64_t frame_timeout_ms = 30'000;
  /// SO_SNDTIMEO on accepted sockets, in ms; <= 0 disables. A peer that stops
  /// reading while responses back up stalls the writer at most this long; the
  /// write then fails, the response is dropped (the peer was not reading it),
  /// and the connection's remaining futures still resolve.
  std::int64_t write_timeout_ms = 30'000;
  /// Ceiling on unanswered requests buffered per connection. A client that
  /// pipelines past it is backpressured in its socket (the reader stops
  /// pulling frames until the writer catches up), bounding per-connection
  /// memory no matter how fast the peer floods. 0 means unlimited.
  std::size_t max_inflight_per_connection = 64;
  /// Slow-request log threshold in milliseconds: a completed request whose
  /// wall time (receipt to response) is >= this emits one structured JSON
  /// record -- id, verb, engine, status, queue_wait_us, wall_us, cache_hit,
  /// trace -- and bumps the net.slow_requests counter. 0 logs every request;
  /// the default -1 disables the log entirely.
  std::int64_t slow_ms = -1;
  /// Destination of the slow-request log; nullptr means std::clog. The stream
  /// must outlive the server; record writes are serialized internally.
  std::ostream* request_log = nullptr;
};

/// The daemon. Construction binds, listens, and starts serving; failures to
/// bind throw std::runtime_error. Destruction performs a graceful shutdown.
class SolveServer {
 public:
  explicit SolveServer(SolveServerOptions options = SolveServerOptions{});
  ~SolveServer();

  SolveServer(const SolveServer&) = delete;
  SolveServer& operator=(const SolveServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  [[nodiscard]] std::uint16_t port() const;

  /// The embedded service, for callers that want to share its cache stats or
  /// queue depth with their own telemetry.
  [[nodiscard]] BatchSolver& solver();

  /// Begins a graceful shutdown and returns once it completes: the listener
  /// closes, every accepted request resolves and its response is written (to
  /// peers still reading), and every connection's socket is closed.
  /// Idempotent; a client's "shutdown" verb triggers the same sequence.
  void shutdown();

  /// Blocks until a shutdown (from any source) has completed. The daemon
  /// main()'s final statement.
  void wait();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace mpss::net
