#include "mpss/service/batch_solver.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <list>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "mpss/obs/registry.hpp"
#include "mpss/obs/span.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/service/fingerprint.hpp"

namespace mpss {

const char* submit_status_name(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted: return "accepted";
    case SubmitStatus::kQueueFull: return "queue_full";
    case SubmitStatus::kShutdown: return "shutdown";
  }
  return "unknown";
}

/// One admitted request waiting in (or popped from) the queue.
struct BatchSolver::Pending {
  int priority = 0;
  std::uint64_t seq = 0;  // admission order; the FIFO tiebreak within a priority
  SolveRequest request;
  std::optional<std::uint64_t> key;  // cache key from admission; none = uncached
  std::promise<SolveResult> promise;
  CancelToken::Clock::time_point enqueued{};

  /// Max-heap order: higher priority first, then lower seq (older) first.
  [[nodiscard]] bool heap_before(const Pending& other) const {
    if (priority != other.priority) return priority < other.priority;
    return seq > other.seq;
  }
};

class BatchSolver::Impl {
 public:
  explicit Impl(const BatchSolverOptions& options) : options_(options) {}

  BatchSolverOptions options_;

  mutable std::mutex queue_mutex_;
  std::condition_variable work_available_;
  std::condition_variable space_available_;
  std::vector<Pending> queue_;  // heap ordered by Pending::heap_before
  std::uint64_t next_seq_ = 0;
  // Written under queue_mutex_; atomic so that a cache hit can be refused
  // after shutdown without taking the queue lock.
  std::atomic<bool> stopping_{false};

  // LRU cache: most recent at the list front; the map indexes list nodes.
  using Lru = std::list<std::pair<std::uint64_t, std::shared_ptr<const CachedResult>>>;
  mutable std::mutex cache_mutex_;
  Lru lru_;
  std::unordered_map<std::uint64_t, Lru::iterator> cache_index_;
  CacheStats cache_stats_;

  /// The entry under `key`, made most recent, or nullptr. A hit always counts;
  /// a miss only when `count_miss`: admission's lookup is a first look, and
  /// the worker's lookup at dispatch decides.
  [[nodiscard]] std::shared_ptr<const CachedResult> cache_get(std::uint64_t key,
                                                              bool count_miss) {
    std::scoped_lock lock(cache_mutex_);
    auto it = cache_index_.find(key);
    if (it == cache_index_.end()) {
      if (count_miss) ++cache_stats_.misses;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++cache_stats_.hits;
    return it->second->second;
  }

  void cache_put(std::uint64_t key, std::shared_ptr<const CachedResult> entry,
                 std::uint64_t* evicted) {
    std::scoped_lock lock(cache_mutex_);
    auto it = cache_index_.find(key);
    if (it != cache_index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return;  // a concurrent miss on the same key beat us to the insert
    }
    lru_.emplace_front(key, std::move(entry));
    cache_index_.emplace(key, lru_.begin());
    while (lru_.size() > options_.cache_capacity) {
      cache_index_.erase(lru_.back().first);
      lru_.pop_back();
      ++cache_stats_.evictions;
      ++*evicted;
    }
  }
};

BatchSolver::BatchSolver(BatchSolverOptions options)
    : impl_(std::make_unique<Impl>(options)), pool_(options.threads) {
  // Each pool worker runs one pump loop for the service's lifetime. The loops
  // block on the service's own condition variable, never on other pool tasks,
  // honouring ThreadPool's no-task-interdependence contract.
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    pool_.submit([this] { worker_loop(); });
  }
}

BatchSolver::~BatchSolver() {
  shutdown();
  try {
    pool_.wait_idle();
  } catch (...) {
    // A pump loop died outside a solve (a library bug); its queued promises
    // surface std::future_errc::broken_promise to their waiters, which is the
    // loudest thing a destructor can safely do.
  }
}

void BatchSolver::shutdown() {
  {
    std::scoped_lock lock(impl_->queue_mutex_);
    if (impl_->stopping_) return;
    impl_->stopping_ = true;
  }
  impl_->work_available_.notify_all();
  impl_->space_available_.notify_all();
  pool_.wait_idle();  // pump loops drain the queue, then exit
}

namespace {

/// Stamps the service-side request telemetry into a result's counters, the
/// channel solve() results already use for engine telemetry. The daemon reads
/// these to build its completion-log records.
void annotate(SolveResult& result, std::uint64_t queue_wait_us, bool cache_hit) {
  result.stats.counters.set("service.queue_wait_us", queue_wait_us);
  result.stats.counters.set("service.cache_hit", cache_hit ? 1 : 0);
}

/// One cache hit's telemetry: the hits counter, the hit marker, and the
/// request's done event (b = 1: served from the cache).
void record_hit(std::uint64_t key, const CachedResult& entry, double seconds) {
  obs::Registry::global().add("service.cache_hits");
  obs::emit(nullptr, obs::EventKind::kCounter, "service.cache_hit", key);
  obs::emit(nullptr, obs::EventKind::kCounter, "service.done",
            static_cast<std::uint64_t>(entry.result().status), /*b=*/1, seconds);
}

/// The accepted submission of a request that admission answered from the
/// cache: the shared entry, and a deferred future that copies its result
/// only when get() is called.
Submission cached_submission(std::shared_ptr<const CachedResult> entry,
                             std::uint64_t key,
                             CancelToken::Clock::time_point admitted) {
  obs::Registry::global().add("service.submitted");
  record_hit(key, *entry,
             std::chrono::duration<double>(CancelToken::Clock::now() - admitted)
                 .count());
  Submission submission;
  submission.status = SubmitStatus::kAccepted;
  submission.future = std::async(std::launch::deferred, [entry] {
    SolveResult result = entry->result();
    annotate(result, /*queue_wait_us=*/0, /*cache_hit=*/true);
    return result;
  });
  submission.cached = std::move(entry);
  return submission;
}

}  // namespace

Submission BatchSolver::admit(SolveRequest&& request, bool blocking) {
  Submission submission;
  // A stopping service refuses hits too (a miss checks again under the lock).
  if (impl_->stopping_.load()) {
    submission.status = SubmitStatus::kShutdown;
    return submission;
  }
  // Fingerprint once, outside both locks; a miss carries the key to the
  // worker. A hit is answered here: it takes no queue slot and no worker.
  const CancelToken::Clock::time_point admitted = CancelToken::Clock::now();
  std::optional<std::uint64_t> key;
  if (impl_->options_.cache_capacity != 0) {
    key = solve_fingerprint(request.instance, request.options);
  }
  if (key) {
    if (std::shared_ptr<const CachedResult> entry =
            impl_->cache_get(*key, /*count_miss=*/false)) {
      return cached_submission(std::move(entry), *key, admitted);
    }
  }
  {
    std::unique_lock lock(impl_->queue_mutex_);
    const std::size_t capacity = impl_->options_.queue_capacity;
    if (blocking && capacity != 0) {
      impl_->space_available_.wait(lock, [&] {
        return impl_->stopping_ || impl_->queue_.size() < capacity;
      });
    }
    if (impl_->stopping_) {
      submission.status = SubmitStatus::kShutdown;
      return submission;
    }
    if (capacity != 0 && impl_->queue_.size() >= capacity) {
      submission.status = SubmitStatus::kQueueFull;
      obs::Registry::global().add("service.rejected_full");
      return submission;
    }
    Pending pending{request.priority, impl_->next_seq_++, std::move(request), key,
                    std::promise<SolveResult>{}, CancelToken::Clock::now()};
    submission.status = SubmitStatus::kAccepted;
    submission.future = pending.promise.get_future();
    impl_->queue_.push_back(std::move(pending));
    std::push_heap(impl_->queue_.begin(), impl_->queue_.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.heap_before(b);
                   });
    obs::Registry::global().add("service.submitted");
  }
  impl_->work_available_.notify_one();
  return submission;
}

Submission BatchSolver::submit(SolveRequest request) {
  return admit(std::move(request), /*blocking=*/true);
}

Submission BatchSolver::try_submit(SolveRequest request) {
  return admit(std::move(request), /*blocking=*/false);
}

Submission BatchSolver::submit(Instance instance, SolveOptions options) {
  return submit(SolveRequest{std::move(instance), std::move(options)});
}

Submission BatchSolver::try_submit(Instance instance, SolveOptions options) {
  return try_submit(SolveRequest{std::move(instance), std::move(options)});
}

void BatchSolver::worker_loop() {
  // One Registry histogram lookup per worker, not per request (the lookup
  // takes the registry mutex; record() on the result is lock-free).
  obs::Histogram& queue_wait_us =
      obs::Registry::global().histogram("service.queue_wait_us");
  for (;;) {
    std::optional<Pending> pending;
    {
      std::unique_lock lock(impl_->queue_mutex_);
      impl_->work_available_.wait(
          lock, [&] { return impl_->stopping_ || !impl_->queue_.empty(); });
      if (impl_->queue_.empty()) return;  // stopping, queue drained
      std::pop_heap(impl_->queue_.begin(), impl_->queue_.end(),
                    [](const Pending& a, const Pending& b) {
                      return a.heap_before(b);
                    });
      pending.emplace(std::move(impl_->queue_.back()));
      impl_->queue_.pop_back();
    }
    impl_->space_available_.notify_one();
    auto wait_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            CancelToken::Clock::now() - pending->enqueued)
            .count());
    queue_wait_us.record(wait_us);
    // The per-request counter event carries the same wait, so offline tools
    // (mpss_trace's service table, --prom) can rebuild the distribution from
    // a trace file alone.
    obs::emit(nullptr, obs::EventKind::kCounter, "service.queue_wait", wait_us);
    execute(std::move(*pending), wait_us);
  }
}

void BatchSolver::execute(Pending pending, std::uint64_t queue_wait_us) {
  const SolveRequest& request = pending.request;
  // Adopt the submitter's trace context: service.request becomes a root span
  // on this worker whose parent is the submitter's span in this process (the
  // daemon's net.request), and everything the engines emit below carries the
  // trace id. An untraced request installs the empty context, which is the
  // worker's resting state anyway.
  obs::TraceContextScope trace_scope(
      obs::TraceContext{request.trace_id, request.parent_span, 0});
  obs::SpanScope request_span(nullptr, "service.request");

  // Looked up again at dispatch: an identical request may have been solved
  // while this one queued.
  const std::optional<std::uint64_t>& key = pending.key;
  if (key) {
    if (std::shared_ptr<const CachedResult> cached =
            impl_->cache_get(*key, /*count_miss=*/true)) {
      record_hit(*key, *cached, request_span.elapsed_seconds());
      SolveResult result = cached->result();
      annotate(result, queue_wait_us, /*cache_hit=*/true);
      pending.promise.set_value(std::move(result));
      return;
    }
    obs::Registry::global().add("service.cache_misses");
    obs::emit(nullptr, obs::EventKind::kCounter, "service.cache_miss", *key);
  }

  SolveResult result;
  try {
    result = solve(request.instance, request.options);
  } catch (...) {
    // solve() only throws InternalError (a library bug); hand it to the waiter.
    pending.promise.set_exception(std::current_exception());
    return;
  }
  obs::emit(nullptr, obs::EventKind::kCounter, "service.done",
            static_cast<std::uint64_t>(result.status), /*b=*/0,
            request_span.elapsed_seconds());
  // Steady-state memory telemetry (S46): a request whose engine ran entirely
  // out of this worker's pooled scratch arena -- capacity present, zero
  // fallback heap blocks -- counts as arena-warm. After each worker's first
  // request the warm fraction should sit at 1; a drift downwards means the
  // workload outgrew the pooled capacity.
  if (result.stats.counters.value("mem.arena_bytes") != 0 &&
      result.stats.counters.value("mem.fallback_allocs") == 0) {
    obs::Registry::global().add("service.arena_warm_solves");
  }
  if (key && result.ok()) {
    std::uint64_t evicted = 0;
    impl_->cache_put(*key, std::make_shared<const CachedResult>(result), &evicted);
    if (evicted != 0) {
      obs::Registry::global().add("service.cache_evictions", evicted);
      obs::emit(nullptr, obs::EventKind::kCounter, "service.cache_evict", *key,
                evicted);
    }
  }
  // Annotate AFTER cache_put so the cached copy stays clean -- a later hit
  // gets ITS queue wait stamped, not this request's.
  annotate(result, queue_wait_us, /*cache_hit=*/false);
  pending.promise.set_value(std::move(result));
}

std::vector<SolveResult> BatchSolver::solve_many(
    std::span<const Instance> instances, const SolveOptions& options) {
  std::vector<Submission> submissions;
  submissions.reserve(instances.size());
  for (const Instance& instance : instances) {
    SolveRequest request{instance, options};
    Submission submission = submit(std::move(request));
    if (!submission.accepted()) {
      throw std::logic_error(
          std::string("BatchSolver::solve_many: submit returned ") +
          submit_status_name(submission.status));
    }
    submissions.push_back(std::move(submission));
  }
  std::vector<SolveResult> results;
  results.reserve(submissions.size());
  for (Submission& submission : submissions) {
    results.push_back(submission.future.get());
  }
  return results;
}

BatchSolver::CacheStats BatchSolver::cache_stats() const {
  std::scoped_lock lock(impl_->cache_mutex_);
  return impl_->cache_stats_;
}

std::size_t BatchSolver::queue_depth() const {
  std::scoped_lock lock(impl_->queue_mutex_);
  return impl_->queue_.size();
}

std::vector<SolveResult> solve_many(std::span<const Instance> instances,
                                    const SolveOptions& options,
                                    std::size_t threads) {
  BatchSolverOptions service;
  service.threads = threads;
  service.queue_capacity = 0;  // one-shot: admit the whole span up front
  BatchSolver solver(service);
  return solver.solve_many(instances, options);
}

}  // namespace mpss
