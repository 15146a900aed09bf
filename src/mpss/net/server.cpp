#include "mpss/net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <list>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "mpss/net/framing.hpp"
#include "mpss/net/protocol.hpp"
#include "mpss/obs/export.hpp"
#include "mpss/obs/histogram.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/obs/span.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/util/cancel.hpp"

namespace mpss::net {

class SolveServer::Impl {
 public:
  /// One response slot in a connection's FIFO. Either `futures` holds the
  /// solves to resolve (solve / solve_many), or `ready` holds a pre-encoded
  /// response (verb payloads, admission errors, and solves answered whole
  /// from the cache at admission). When both are present the futures are
  /// consumed first and `ready` wins -- the partial-admission failure path,
  /// where already-accepted solves must still resolve.
  struct Entry {
    std::uint64_t id = 0;
    Verb verb = Verb::kHealth;
    std::vector<std::future<SolveResult>> futures;
    std::vector<std::shared_ptr<CancelToken>> tokens;
    std::string ready;
    std::string ready_status;  // completion-log status of a `ready` response
    std::size_t cached = 0;    // results of a `ready` reply taken from the cache
    std::string engine;        // engine name, solve entries only (for the log)
    std::uint64_t trace_id = 0;  // distributed trace id, 0 when untraced
    CancelToken::Clock::time_point received{};
  };

  /// What resolve() learned about an entry, for the completion log: the
  /// aggregated status plus the service-side annotations the solves carried
  /// back through their result counters (batch_solver.cpp stamps them).
  struct Completion {
    std::string status;
    std::uint64_t queue_wait_us = 0;  // max across the entry's solves
    bool cache_hit = false;           // any solve served from the result cache
  };

  /// One accepted socket, shared by a detached reader/writer thread pair (each
  /// holds a shared_ptr). The writer tears it down (close_connection).
  struct Connection {
    ScopedFd fd;

    std::mutex mutex;
    std::condition_variable entry_ready;
    std::condition_variable entry_popped;  // writer pops -> reader may enqueue
    std::deque<Entry> pending;  // writer consumes the front; reader appends
    bool reader_done = false;
    bool client_closed = false;  // the reader saw the peer leave, not a drain
    bool peer_writable = true;   // false once a write failed: stop writing
    /// Set (before SHUT_RD) by the graceful-drain path so the reader's EOF is
    /// not mistaken for a client disconnect -- drained requests keep running.
    std::atomic<bool> draining{false};
  };

  explicit Impl(SolveServerOptions options)
      : options_(std::move(options)),
        request_us_(obs::Registry::global().histogram("net.request_us")),
        solver_(options_.service),
        listen_fd_(bind_listen_ipv4(options_.host, options_.port, "SolveServer")),
        port_(bound_port(listen_fd_.get(), "SolveServer")) {
    // Pre-register the S48 robustness counters so /metrics exposes them at
    // zero from the first scrape, instead of only after the first incident.
    obs::Registry::global().add("net.retries", 0);
    obs::Registry::global().add("net.timeouts", 0);
    obs::Registry::global().add("net.accept_errors", 0);
    acceptor_ = std::thread([this] { accept_loop(); });
    supervisor_ = std::thread([this] { supervise(); });
  }

  ~Impl() {
    request_shutdown();
    if (supervisor_.joinable()) supervisor_.join();
  }

  SolveServerOptions options_;
  // Solve wall time, receipt to response (Registry references stay valid).
  obs::Histogram& request_us_;
  BatchSolver solver_;
  ScopedFd listen_fd_;
  std::uint16_t port_;
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
  std::mutex log_mutex_;  // serializes completion-log records across writers

  std::thread acceptor_;
  std::thread supervisor_;

  mutable std::mutex mutex_;
  std::condition_variable shutdown_cv_;
  std::condition_variable done_cv_;
  std::condition_variable connections_closed_;  // the live list emptied
  std::list<std::shared_ptr<Connection>> connections_;  // live: socket open
  std::atomic<bool> listener_closed_{false};  // set before the listener shuts
  bool shutdown_requested_ = false;
  bool done_ = false;

  void request_shutdown() {
    {
      std::scoped_lock lock(mutex_);
      if (shutdown_requested_) return;
      shutdown_requested_ = true;
    }
    shutdown_cv_.notify_all();
  }

  void wait_done() {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return done_; });
  }

  void accept_loop() {
    for (;;) {
      ScopedFd fd = accept_connection(listen_fd_.get(), listener_closed_);
      if (!fd.valid()) return;  // the supervisor shut the listener down
      if (options_.write_timeout_ms > 0) {
        try {
          set_send_timeout(fd.get(), options_.write_timeout_ms, "SolveServer");
        } catch (const std::runtime_error&) {
          continue;  // a dying fd; ScopedFd closes it, keep accepting
        }
      }
      auto connection = std::make_shared<Connection>();
      connection->fd = std::move(fd);
      std::scoped_lock lock(mutex_);
      if (shutdown_requested_) continue;  // ScopedFd closes the late arrival
      obs::Registry::global().add("net.connections");
      connections_.push_back(connection);
      std::thread([this, connection] { read_loop(*connection); }).detach();
      std::thread([this, connection] { write_loop(*connection); }).detach();
    }
  }

  /// The one shutdown sequence, run on the supervisor thread so a client's
  /// "shutdown" verb (observed on a reader thread) can trigger it without
  /// joining itself.
  void supervise() {
    {
      std::unique_lock lock(mutex_);
      shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
    }
    // Stop the listener; SHUT_RDWR pops the acceptor out of accept().
    listener_closed_.store(true);
    ::shutdown(listen_fd_.get(), SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    listen_fd_.close();

    // Drain every live connection: half-close the read side (the reader sees
    // a clean EOF, flagged as draining so nothing is cancelled), then wait for
    // the live list to empty -- a writer leaves it only once every accepted
    // request resolved and its response was written. Listed sockets are open
    // (close_connection closes under this lock), so SHUT_RD hits no stranger.
    {
      std::unique_lock lock(mutex_);
      for (const auto& connection : connections_) {
        connection->draining.store(true, std::memory_order_release);
        ::shutdown(connection->fd.get(), SHUT_RD);
      }
      connections_closed_.wait(lock, [&] { return connections_.empty(); });
    }
    solver_.shutdown();
    {
      std::scoped_lock lock(mutex_);
      done_ = true;
    }
    done_cv_.notify_all();
  }

  /// Hands an entry to the connection's FIFO -- or, when it needs nothing
  /// resolved and nothing is queued ahead of it, delivers it on this (the
  /// reader's) thread. The writer touches the socket only for a queued entry,
  /// which stays queued until written, and only this reader queues: so an
  /// empty FIFO means no write is in progress and none can start before the
  /// inline one ends, and replies stay in request order.
  void enqueue(Connection& connection, Entry entry) {
    {
      std::unique_lock lock(connection.mutex);
      if (entry.futures.empty() && connection.pending.empty()) {
        lock.unlock();
        deliver(connection, entry);
        return;
      }
      // Inflight cap: hold this reader (and, through TCP flow control, the
      // client) until the writer drains below the cap. The writer never stops
      // popping -- even with an unwritable peer it keeps resolving -- so this
      // wait always makes progress.
      if (options_.max_inflight_per_connection > 0) {
        connection.entry_popped.wait(lock, [&] {
          return connection.pending.size() <
                 options_.max_inflight_per_connection;
        });
      }
      connection.pending.push_back(std::move(entry));
    }
    connection.entry_ready.notify_one();
  }

  void read_loop(Connection& connection) {
    std::string payload;
    bool frame_error = false;
    const ReadDeadlines deadlines{options_.idle_timeout_ms,
                                  options_.frame_timeout_ms};
    try {
      while (read_frame(connection.fd.get(), payload, options_.max_frame_bytes,
                        deadlines)) {
        obs::Registry::global().add("net.requests");
        obs::emit(nullptr, obs::EventKind::kCounter, "net.request",
                  /*a=*/payload.size());
        handle_frame(connection, payload);
      }
    } catch (const FrameError& error) {
      // Unframeable stream: no resync point exists, drop the connection. The
      // writer flushes what was already accepted, exactly like a plain EOF.
      obs::Registry::global().add("net.frame_errors");
      if (error.kind() == FrameError::Kind::kTimeout) {
        obs::Registry::global().add("net.timeouts");
        obs::emit(nullptr, obs::EventKind::kCounter, "net.read_timeout");
      }
      frame_error = true;
    }
    if (frame_error) {
      // Sever the socket both ways so the peer observes the cutoff promptly
      // (the fd itself is closed by the writer once the FIFO drains).
      // The stream is beyond resync, so undelivered responses are already
      // lost; the writer keeps resolving futures and its writes fail fast.
      ::shutdown(connection.fd.get(), SHUT_RDWR);
    }
    const bool draining = connection.draining.load(std::memory_order_acquire);
    if (!draining || frame_error) {
      // The client is gone (or garbled): nobody will read the remaining
      // responses, so stop the outstanding solves at their next checkpoint.
      std::size_t cancelled = 0;
      {
        std::scoped_lock lock(connection.mutex);
        for (Entry& entry : connection.pending) {
          for (const auto& token : entry.tokens) {
            token->request_cancel();
            ++cancelled;
          }
        }
      }
      if (cancelled != 0) {
        obs::Registry::global().add("net.cancelled_on_disconnect", cancelled);
        obs::emit(nullptr, obs::EventKind::kCounter, "net.disconnect_cancel",
                  cancelled);
      }
    }
    // Past this point the writer may finish and the server may be destroyed:
    // the reader touches only the Connection (which its shared_ptr keeps).
    {
      std::scoped_lock lock(connection.mutex);
      connection.reader_done = true;
      connection.client_closed = !draining;
    }
    connection.entry_ready.notify_one();
  }

  /// The one teardown path, run by a connection's writer once its reader is
  /// done and its FIFO drained. It notifies under the lock, so the supervisor's
  /// wait (and the Impl's destruction) comes after this thread lets go of it;
  /// the writer touches no Impl member afterwards.
  void close_connection(Connection& connection) {
    std::scoped_lock lock(mutex_);
    connection.fd.close();
    connections_.remove_if(
        [&](const std::shared_ptr<Connection>& c) { return c.get() == &connection; });
    if (connection.client_closed) obs::Registry::global().add("net.disconnects");
    if (connections_.empty()) connections_closed_.notify_all();
  }

  void handle_frame(Connection& connection, std::string_view payload) {
    Request request;
    try {
      request = decode_request(payload);
    } catch (const ProtocolError& error) {
      obs::Registry::global().add("net.errors");
      Entry entry;
      entry.ready = encode_error_response(0, error.code(), error.what());
      entry.ready_status = error_code_name(error.code());
      enqueue(connection, std::move(entry));
      return;
    }
    // Adopt the client's trace context for the dispatch: net.request becomes
    // a root span whose *remote* parent is the client's client.solve span
    // (recorded as rparent; only mpss_trace's multi-file merge can resolve
    // it), and every event emitted below carries the client's trace id.
    std::optional<obs::TraceContextScope> trace_scope;
    if (request.trace_id != 0) {
      trace_scope.emplace(
          obs::TraceContext{request.trace_id, 0, request.parent_span});
    }
    obs::SpanScope request_span(nullptr, "net.request");
    switch (request.verb) {
      case Verb::kSolve:
      case Verb::kSolveMany:
        handle_solve(connection, std::move(request), request_span.id());
        return;
      case Verb::kStats: {
        Entry entry = payload_entry(request);
        entry.ready =
            encode_payload_response(request.id, "stats", stats_payload());
        enqueue(connection, std::move(entry));
        return;
      }
      case Verb::kHealth: {
        json::Value health;
        health.set("status", "ok");
        health.set("protocol", static_cast<double>(kProtocolVersion));
        Entry entry = payload_entry(request);
        entry.ready = encode_payload_response(request.id, "health", std::move(health));
        enqueue(connection, std::move(entry));
        return;
      }
      case Verb::kMetrics: {
        Entry entry = payload_entry(request);
        entry.ready = encode_payload_response(
            request.id, "metrics", json::Value(obs::render_prometheus()));
        enqueue(connection, std::move(entry));
        return;
      }
      case Verb::kShutdown: {
        // Ack first (the FIFO guarantees the ack is written after every
        // earlier response), then hand the drain to the supervisor.
        json::Value payload_value;
        payload_value.set("draining", true);
        Entry entry = payload_entry(request);
        entry.ready = encode_payload_response(request.id, "shutdown",
                                              std::move(payload_value));
        enqueue(connection, std::move(entry));
        obs::emit(nullptr, obs::EventKind::kCounter, "net.shutdown_verb");
        request_shutdown();
        return;
      }
    }
  }

  /// The shared Entry shape of the verb-payload responses (stats, health,
  /// metrics, shutdown): identified, timed, and pre-resolved as "ok".
  static Entry payload_entry(const Request& request) {
    Entry entry;
    entry.id = request.id;
    entry.verb = request.verb;
    entry.trace_id = request.trace_id;
    entry.ready_status = "ok";
    entry.received = CancelToken::Clock::now();
    return entry;
  }

  void handle_solve(Connection& connection, Request request,
                    obs::SpanId net_span) {
    Entry entry;
    entry.id = request.id;
    entry.verb = request.verb;
    entry.trace_id = request.trace_id;
    entry.engine = engine_name(request.options.engine);
    entry.received = CancelToken::Clock::now();
    entry.futures.reserve(request.instances.size());
    entry.tokens.reserve(request.instances.size());
    std::vector<std::shared_ptr<const CachedResult>> hits;
    for (Instance& instance : request.instances) {
      auto token = std::make_shared<CancelToken>();
      if (request.deadline_ms > 0) {
        token->set_deadline(entry.received +
                            std::chrono::milliseconds(request.deadline_ms));
      }
      SolveRequest solve_request{std::move(instance), request.options};
      solve_request.options.cancel = token.get();
      solve_request.priority = request.priority;
      // The worker that picks this up re-installs the trace context with the
      // reader's net.request span as the *local* parent, so service.request
      // nests under it across the thread hop.
      solve_request.trace_id = request.trace_id;
      solve_request.parent_span = net_span;
      // Blocking submit: the bounded admission queue backpressures this
      // reader (and through TCP flow control, the client) instead of letting
      // requests pile up in memory. A cache hit is answered inside submit().
      Submission submission = solver_.submit(std::move(solve_request));
      if (!submission.accepted()) {
        obs::Registry::global().add("net.errors");
        ErrorCode code = submission.status == SubmitStatus::kQueueFull
                             ? ErrorCode::kQueueFull
                             : ErrorCode::kShutdown;
        entry.ready = encode_error_response(
            request.id, code,
            std::string("admission failed: ") +
                submit_status_name(submission.status));
        entry.ready_status = error_code_name(code);
        break;  // accepted futures stay in the entry and still resolve
      }
      if (submission.cached) hits.push_back(std::move(submission.cached));
      entry.futures.push_back(std::move(submission.future));
      entry.tokens.push_back(std::move(token));
    }
    if (entry.ready.empty() && hits.size() == entry.futures.size()) {
      // Every result came from the cache: paste each entry's memoized result
      // object (written once per entry) instead of copying and re-encoding.
      std::vector<std::string_view> objects;
      objects.reserve(hits.size());
      for (const auto& hit : hits) objects.push_back(result_object(*hit));
      entry.ready = encode_results_response(entry.id, objects);
      entry.ready_status = "ok";  // only kOk results are cached
      entry.cached = hits.size();
      entry.futures.clear();  // deferred: nothing ran, nothing to wait for
      entry.tokens.clear();
    }
    enqueue(connection, std::move(entry));
  }

  /// The result object of a cache entry, as write_result writes it: encoded by
  /// the first reply that needs it and kept with the entry.
  static std::string_view result_object(const CachedResult& hit) {
    return hit.encoded([](const SolveResult& result, std::string& out) {
      json::Writer writer(out);
      write_result(writer, result);
    });
  }

  void write_loop(Connection& connection) {
    for (;;) {
      // The front entry stays in the deque while its futures resolve: the
      // reader's disconnect-cancel walk must still reach its tokens, and the
      // reader must not write past it. Only the writer pops, and deque
      // push_back never invalidates front references, so the pointer taken
      // under the lock stays valid across the unlock.
      Entry* front = nullptr;
      {
        std::unique_lock lock(connection.mutex);
        connection.entry_ready.wait(lock, [&] {
          return connection.reader_done || !connection.pending.empty();
        });
        if (connection.pending.empty()) break;  // reader done, FIFO drained
        front = &connection.pending.front();
      }
      deliver(connection, *front);
      {
        std::scoped_lock lock(connection.mutex);
        connection.pending.pop_front();
      }
      connection.entry_popped.notify_one();
    }
    close_connection(connection);
  }

  /// The one way a response leaves: resolve the entry, account its latency,
  /// log it if slow, and write it -- unless an earlier write on this
  /// connection failed. The writer runs it for each queued entry in turn, the
  /// reader for an entry it may write inline (enqueue); never both at once.
  void deliver(Connection& connection, Entry& entry) {
    Completion completion;
    std::string response = resolve(entry, completion);
    const bool timed = entry.received != CancelToken::Clock::time_point{};
    std::uint64_t wall_us = 0;
    if (timed) {
      wall_us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              CancelToken::Clock::now() - entry.received)
              .count());
      // The latency histogram keeps its pre-metrics meaning: solve wall
      // time only, not the (instant) verb payloads.
      if (entry.verb == Verb::kSolve || entry.verb == Verb::kSolveMany) {
        request_us_.record(wall_us);
      }
    }
    if (timed && options_.slow_ms >= 0 &&
        wall_us / 1000 >= static_cast<std::uint64_t>(options_.slow_ms)) {
      obs::Registry::global().add("net.slow_requests");
      log_request(entry, completion, wall_us);
    }
    {
      std::scoped_lock lock(connection.mutex);
      if (!connection.peer_writable) return;
    }
    try {
      write_frame(connection.fd.get(), response, options_.max_frame_bytes);
      obs::Registry::global().add("net.responses");
      obs::emit(nullptr, obs::EventKind::kCounter, "net.response",
                /*a=*/response.size(), /*b=*/entry.futures.size() + entry.cached,
                timed ? std::chrono::duration<double>(CancelToken::Clock::now() -
                                                      entry.received)
                            .count()
                      : 0.0);
    } catch (const FrameError& error) {
      // Peer gone mid-write -- or, under SO_SNDTIMEO, a peer that stopped
      // reading long enough to fill its receive window. Keep resolving
      // futures (the no-dropped-futures contract) but stop writing.
      {
        std::scoped_lock lock(connection.mutex);
        connection.peer_writable = false;
      }
      obs::Registry::global().add("net.write_failures");
      if (error.kind() == FrameError::Kind::kTimeout) {
        obs::Registry::global().add("net.timeouts");
      }
    }
  }

  /// Resolves an entry into its wire response. Every future is consumed even
  /// on the error paths -- an accepted request always runs to a result.
  /// `completion` collects what the log needs: the aggregated status and the
  /// queue-wait / cache-hit annotations the service stamped into the results.
  std::string resolve(Entry& entry, Completion& completion) {
    std::vector<SolveResult> results;
    results.reserve(entry.futures.size());
    std::string internal_error;
    for (std::future<SolveResult>& future : entry.futures) {
      try {
        results.push_back(future.get());
      } catch (const std::exception& error) {
        // InternalError propagated through the promise: a server-side bug,
        // reported as such (after the remaining futures are consumed).
        if (internal_error.empty()) internal_error = error.what();
      }
    }
    completion.status = "ok";
    completion.cache_hit = entry.cached != 0;
    for (const SolveResult& result : results) {
      completion.queue_wait_us =
          std::max(completion.queue_wait_us,
                   result.stats.counters.value("service.queue_wait_us"));
      if (result.stats.counters.value("service.cache_hit") != 0) {
        completion.cache_hit = true;
      }
      if (completion.status == "ok" && !result.ok()) {
        completion.status = solve_status_name(result.status);
      }
    }
    if (!entry.ready.empty()) {
      completion.status = entry.ready_status;
      return std::move(entry.ready);
    }
    if (!internal_error.empty()) {
      obs::Registry::global().add("net.errors");
      completion.status = error_code_name(ErrorCode::kInternal);
      return encode_error_response(entry.id, ErrorCode::kInternal,
                                   internal_error);
    }
    return encode_results_response(entry.id, results);
  }

  /// One machine-parseable completion record (a single JSON object per line),
  /// mirroring what an operator needs to chase a slow request back to its
  /// trace: `{"event":"request","id":7,"verb":"solve","engine":"exact",
  /// "status":"ok","queue_wait_us":120,"wall_us":5300,"cache_hit":false,
  /// "trace":"8589934593"}`. The trace id is a decimal string for the same
  /// reason it is on the wire (doubles truncate past 2^53).
  void log_request(const Entry& entry, const Completion& completion,
                   std::uint64_t wall_us) {
    json::Value record;
    record.set("event", "request");
    record.set("id", static_cast<double>(entry.id));
    record.set("verb", verb_name(entry.verb));
    if (!entry.engine.empty()) record.set("engine", entry.engine);
    record.set("status", completion.status);
    record.set("queue_wait_us", static_cast<double>(completion.queue_wait_us));
    record.set("wall_us", static_cast<double>(wall_us));
    record.set("cache_hit", completion.cache_hit);
    if (entry.trace_id != 0) record.set("trace", std::to_string(entry.trace_id));
    std::ostream* out =
        options_.request_log != nullptr ? options_.request_log : &std::clog;
    std::scoped_lock lock(log_mutex_);
    *out << json::serialize(record) << '\n' << std::flush;
  }

  json::Value stats_payload() {
    json::Value stats;
    stats.set("queue_depth", solver_.queue_depth());
    stats.set("workers", solver_.worker_count());
    stats.set("uptime_seconds",
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start_)
                  .count());
    BatchSolver::CacheStats cache = solver_.cache_stats();
    json::Value cache_value;
    cache_value.set("hits", static_cast<double>(cache.hits));
    cache_value.set("misses", static_cast<double>(cache.misses));
    cache_value.set("evictions", static_cast<double>(cache.evictions));
    stats.set("cache", std::move(cache_value));
    // Latency summaries of the two service-path histograms, in microseconds.
    // Quantiles are interpolated within log2 buckets (obs/histogram.hpp), so
    // they are estimates -- good to ~a factor of 2, like the buckets.
    json::Value latency;
    obs::HistogramMap histograms = obs::Registry::global().histogram_snapshot();
    for (const char* name : {"net.request_us", "service.queue_wait_us"}) {
      auto it = histograms.find(name);
      if (it == histograms.end()) continue;
      obs::Percentiles summary = obs::percentiles(it->second);
      json::Value quantiles;
      quantiles.set("p50", static_cast<double>(summary.p50));
      quantiles.set("p90", static_cast<double>(summary.p90));
      quantiles.set("p99", static_cast<double>(summary.p99));
      quantiles.set("count", static_cast<double>(it->second.count));
      latency.set(name, std::move(quantiles));
    }
    stats.set("latency", std::move(latency));
    {
      std::scoped_lock lock(mutex_);
      stats.set("connections", connections_.size());
    }
    return stats;
  }
};

SolveServer::SolveServer(SolveServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

SolveServer::~SolveServer() = default;

std::uint16_t SolveServer::port() const { return impl_->port_; }

BatchSolver& SolveServer::solver() { return impl_->solver_; }

void SolveServer::shutdown() {
  impl_->request_shutdown();
  impl_->wait_done();
}

void SolveServer::wait() { impl_->wait_done(); }

}  // namespace mpss::net
