#pragma once
// Concurrent batch-solve service (S44, see DESIGN.md).
//
// The solve() facade is synchronous and single-instance. Every batch-shaped
// caller in the repo -- the experiment sweeps, the adversary search, the bench
// harnesses -- had grown its own ThreadPool loop around it. BatchSolver is the
// shared service those loops port to:
//
//   * a fixed pool of workers pumping a bounded, priority-ordered admission
//     queue (backpressure: try_submit reports kQueueFull, submit blocks);
//   * per-request soft deadlines and cooperative cancellation, delivered to
//     the engines through SolveOptions::cancel and surfaced as
//     SolveStatus::kDeadlineExceeded / kCancelled -- never as exceptions;
//   * an LRU result cache keyed by the canonical (instance, options)
//     fingerprint (service/fingerprint.hpp), so sweeps that revisit a cell
//     (the adversary search re-scoring a mutated-then-reverted instance, a
//     bench's repeat iterations) pay one solve. The instance is fingerprinted
//     once, at admission, and a hit is answered there, on the caller's
//     thread: it never queues, takes no worker and copies nothing until the
//     caller asks for the result. Entries are shared (CachedResult), so the
//     caller can hold one past its eviction. A request that misses at
//     admission carries its key to the worker, which looks it up once more
//     (an identical solve may have finished while it queued);
//   * telemetry through the obs Registry: service.cache_{hits,misses,
//     evictions} counters, the service.queue_wait_us histogram (queued
//     requests only), one "service.done" counter event per request, and one
//     "service.request" span per request a worker runs.
//
// Results come back as std::future<SolveResult>; solve_many() is the one-shot
// wrapper that submits a span of instances and returns results in input order.

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "mpss/solve.hpp"
#include "mpss/util/cancel.hpp"
#include "mpss/util/thread_pool.hpp"

namespace mpss {

/// One unit of service work: an instance, the solve knobs, and the service-
/// level scheduling hints (neither affects the solve's result -- the cache
/// deliberately ignores them).
struct SolveRequest {
  Instance instance;
  /// A deadline or cancellation travels on `options.cancel` (a CancelToken
  /// with set_deadline / request_cancel): a token that fires while the
  /// request is queued stops it before dispatch, one that fires mid-run at
  /// the next engine checkpoint, and either resolves as kDeadlineExceeded or
  /// kCancelled.
  SolveOptions options;

  /// Admission-queue priority: higher runs first; ties dispatch FIFO.
  int priority = 0;

  /// Distributed-tracing context (0/0 = untraced): the worker that executes
  /// this request installs {trace_id, parent_span} as its trace context, so
  /// the service.request span -- opened on the worker thread -- parents under
  /// the submitter's span (the daemon's net.request) across the thread hop,
  /// and every event of the solve carries the trace id. `parent_span` is a
  /// span id of THIS process (cross-process parents stay in net/ -- the
  /// server resolves the wire header into its own net.request span first).
  /// A hit answered at admission runs no worker: its events go out on the
  /// submitting thread, under that thread's own context.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

/// How an admission attempt ended.
enum class SubmitStatus {
  kAccepted,   // queued; the submission's future will resolve
  kQueueFull,  // try_submit only: bounded queue at capacity, request dropped
  kShutdown,   // service is shutting down, request dropped
};

/// Stable lowercase name ("accepted", "queue_full", "shutdown").
[[nodiscard]] const char* submit_status_name(SubmitStatus status);

/// One result-cache entry: a kOk result as solve() returned it (no service
/// annotations), shared by the LRU and by every submission it answered, plus
/// one slot that memoizes an encoding of it. The daemon keeps the result's
/// wire object there, so a hot entry is encoded once, not once per hit; the
/// bytes live and die with the entry.
class CachedResult {
 public:
  explicit CachedResult(SolveResult result) : result_(std::move(result)) {}

  [[nodiscard]] const SolveResult& result() const { return result_; }

  /// What `encode(result(), out)` appends to an empty `out`. The first caller
  /// runs it (under std::call_once); every later one, on any thread, gets the
  /// same bytes. An entry has one encoding: every caller passes the same one.
  template <typename Encode>
  [[nodiscard]] std::string_view encoded(Encode&& encode) const {
    std::call_once(encode_once_, [&] { encode(result_, encoded_); });
    return encoded_;
  }

 private:
  SolveResult result_;
  mutable std::once_flag encode_once_;
  mutable std::string encoded_;
};

/// Outcome of submit()/try_submit(). The future is valid only when accepted.
struct Submission {
  SubmitStatus status = SubmitStatus::kShutdown;
  std::future<SolveResult> future;
  /// Set when admission answered the request from the result cache. The
  /// future is then deferred: get() copies the entry's result (annotated as a
  /// hit with no queue wait) on the calling thread, and nothing runs if it is
  /// never called.
  std::shared_ptr<const CachedResult> cached;

  [[nodiscard]] bool accepted() const { return status == SubmitStatus::kAccepted; }
};

struct BatchSolverOptions {
  /// Worker threads; 0 means hardware_concurrency (at least 1).
  std::size_t threads = 0;
  /// Admission-queue capacity; 0 means unbounded (try_submit never reports
  /// kQueueFull and submit never blocks).
  std::size_t queue_capacity = 256;
  /// LRU result-cache entries; 0 disables caching entirely.
  std::size_t cache_capacity = 128;
};

/// Thread-pool-backed solve service. Construction starts the workers;
/// destruction (or shutdown()) stops admission, drains every queued request,
/// and joins -- no accepted future is ever abandoned.
class BatchSolver {
 public:
  explicit BatchSolver(BatchSolverOptions options = BatchSolverOptions{});
  ~BatchSolver();

  BatchSolver(const BatchSolver&) = delete;
  BatchSolver& operator=(const BatchSolver&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return pool_.size(); }

  /// Queues a request, blocking while the bounded queue is full (the
  /// backpressure path for producers that must not drop work). Returns
  /// kShutdown without queuing when the service is stopping. A cache hit is
  /// accepted at once, full queue or not (Submission::cached).
  [[nodiscard]] Submission submit(SolveRequest request);

  /// Non-blocking admission: kQueueFull instead of waiting when the bounded
  /// queue is at capacity and the request misses the cache.
  [[nodiscard]] Submission try_submit(SolveRequest request);

  /// Instance-first conveniences: the common "solve this value under these
  /// knobs" shape without spelling out a SolveRequest (service hints take
  /// their defaults: priority 0, untraced).
  [[nodiscard]] Submission submit(Instance instance,
                                  SolveOptions options = SolveOptions{});
  [[nodiscard]] Submission try_submit(Instance instance,
                                      SolveOptions options = SolveOptions{});

  /// Solves every instance under the same options and returns the results in
  /// input order (the one-shot batch API). Blocks until all are done.
  [[nodiscard]] std::vector<SolveResult> solve_many(
      std::span<const Instance> instances,
      const SolveOptions& options = SolveOptions{});

  /// Monotonic mirror of the service.cache_* Registry counters, scoped to
  /// this instance (tests assert on these; dashboards read the Registry).
  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] CacheStats cache_stats() const;

  /// Requests currently queued (excludes in-flight solves). Advisory: the
  /// value may be stale by the time the caller acts on it.
  [[nodiscard]] std::size_t queue_depth() const;

  /// Stops admission (further submits report kShutdown), drains the queue,
  /// and joins the workers. Idempotent; the destructor calls it.
  void shutdown();

 private:
  struct Pending;
  class Impl;

  void worker_loop();
  Submission admit(SolveRequest&& request, bool blocking);
  void execute(Pending request, std::uint64_t queue_wait_us);

  std::unique_ptr<Impl> impl_;
  ThreadPool pool_;  // declared last: workers must die before the state they use
};

/// One-shot convenience: spins up a BatchSolver (with `threads` workers; 0 =
/// hardware concurrency), solves every instance under `options`, and returns
/// the results in input order.
[[nodiscard]] std::vector<SolveResult> solve_many(
    std::span<const Instance> instances,
    const SolveOptions& options = SolveOptions{}, std::size_t threads = 0);

}  // namespace mpss
