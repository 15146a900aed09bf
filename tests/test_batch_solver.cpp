// Tests for the BatchSolver service layer (S44): concurrent batches agree with
// serial solves bit for bit, the result cache returns identical results (a hit
// at admission, even past a full queue), soft deadlines and cancellation come
// back as statuses, and the bounded admission queue applies real backpressure.

#include "mpss/service/batch_solver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "mpss/obs/registry.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/service/fingerprint.hpp"
#include "mpss/util/cancel.hpp"
#include "mpss/workload/generators.hpp"

namespace mpss {
namespace {

Instance test_instance(std::uint64_t seed, std::size_t jobs = 10,
                       std::size_t machines = 3) {
  return generate_uniform({.jobs = jobs, .machines = machines, .horizon = 20,
                           .max_window = 8, .max_work = 6}, seed);
}

std::vector<Instance> corpus(std::size_t count) {
  std::vector<Instance> instances;
  for (std::uint64_t seed = 1; seed <= count; ++seed) {
    instances.push_back(test_instance(seed));
  }
  return instances;
}

/// Exact schedules are deterministic, so cross-thread agreement can demand
/// bit-identical slice lists, not just equal energies.
void expect_identical_schedules(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.machines(), b.machines());
  for (std::size_t m = 0; m < a.machines(); ++m) {
    auto sa = a.machine(m);
    auto sb = b.machine(m);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i], sb[i]);  // Slice has defaulted operator==
    }
  }
}

TEST(BatchSolver, SolveManyMatchesSerialExactSolvesBitForBit) {
  std::vector<Instance> instances = corpus(12);
  BatchSolver service(BatchSolverOptions{.threads = 4, .queue_capacity = 4,
                                         .cache_capacity = 0});
  std::vector<SolveResult> batch = service.solve_many(instances);
  ASSERT_EQ(batch.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    SCOPED_TRACE(i);
    SolveResult serial = solve(instances[i]);
    ASSERT_TRUE(batch[i].ok());
    ASSERT_TRUE(serial.ok());
    EXPECT_EQ(batch[i].energy, serial.energy);  // exact engine: no tolerance
    ASSERT_NE(batch[i].exact_schedule(), nullptr);
    expect_identical_schedules(*batch[i].exact_schedule(),
                               *serial.exact_schedule());
  }
}

TEST(BatchSolver, ManyProducerThreadsThroughOneService) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 6;
  BatchSolver service(BatchSolverOptions{.threads = 3, .queue_capacity = 8,
                                         .cache_capacity = 0});
  std::vector<std::vector<double>> energies(kProducers);
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kProducers; ++t) {
    producers.emplace_back([&service, &energies, t] {
      for (std::uint64_t seed = 1; seed <= kPerProducer; ++seed) {
        Submission submission =
            service.submit({test_instance(seed), SolveOptions{}});
        ASSERT_TRUE(submission.accepted());
        energies[t].push_back(submission.future.get().energy);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();
  // Every producer solved the same seed sequence: identical energy vectors.
  for (std::size_t t = 1; t < kProducers; ++t) {
    EXPECT_EQ(energies[t], energies[0]);
  }
}

TEST(BatchSolver, CacheHitReturnsTheSameResult) {
  Instance instance = test_instance(7);
  BatchSolver service(BatchSolverOptions{.threads = 1, .queue_capacity = 0,
                                         .cache_capacity = 4});
  SolveResult cold = service.submit({instance, SolveOptions{}}).future.get();
  SolveResult warm = service.submit({instance, SolveOptions{}}).future.get();
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(cold.energy, warm.energy);
  expect_identical_schedules(*cold.exact_schedule(), *warm.exact_schedule());

  BatchSolver::CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
}

/// A per-request trace sink that holds the solving worker at the solve's
/// first event until release(): a worker pinned inside a solve on demand.
class BlockingSink final : public obs::TraceSink {
 public:
  void record(const obs::TraceEvent&) override {
    std::unique_lock lock(mutex_);
    if (entered_) return;
    entered_ = true;
    changed_.notify_all();
    changed_.wait(lock, [&] { return released_; });
  }
  void wait_entered() {
    std::unique_lock lock(mutex_);
    changed_.wait(lock, [&] { return entered_; });
  }
  void release() {
    {
      std::scoped_lock lock(mutex_);
      released_ = true;
    }
    changed_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable changed_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(BatchSolver, CacheHitIsAnsweredAtAdmissionPastAFullQueue) {
  BlockingSink sink;  // outlives the service, whose worker it will hold
  BatchSolver service(BatchSolverOptions{.threads = 1, .queue_capacity = 1,
                                         .cache_capacity = 8});
  // Every way out of the test lets the worker go before the service waits
  // for it, so a failed assertion fails instead of hanging.
  struct ReleaseOnExit {
    BlockingSink& sink;
    ~ReleaseOnExit() { sink.release(); }
  } release_on_exit{sink};
  const Instance hot = test_instance(7);
  const SolveResult cold = service.submit({hot, SolveOptions{}}).future.get();
  ASSERT_TRUE(cold.ok());

  // The one worker is held inside a solve and the queue's one slot is taken.
  SolveOptions pinned;
  pinned.trace = &sink;
  Submission running = service.submit({test_instance(8), pinned});
  ASSERT_TRUE(running.accepted());
  sink.wait_entered();
  Submission queued = service.try_submit({test_instance(9), SolveOptions{}});
  ASSERT_EQ(queued.status, SubmitStatus::kAccepted);
  EXPECT_EQ(service.try_submit({test_instance(10), SolveOptions{}}).status,
            SubmitStatus::kQueueFull);

  // A hit needs neither: admission answers it from the shared entry.
  Submission hit = service.try_submit({hot, SolveOptions{}});
  ASSERT_EQ(hit.status, SubmitStatus::kAccepted);
  ASSERT_NE(hit.cached, nullptr);
  const SolveResult warm = hit.future.get();
  EXPECT_EQ(warm.status, cold.status);
  EXPECT_EQ(warm.error_detail, cold.error_detail);
  EXPECT_EQ(warm.energy, cold.energy);
  expect_identical_schedules(*warm.exact_schedule(), *cold.exact_schedule());
  expect_identical_schedules(*hit.cached->result().exact_schedule(),
                             *cold.exact_schedule());
  EXPECT_EQ(warm.stats.counters.value("service.cache_hit"), 1u);
  EXPECT_EQ(warm.stats.counters.value("service.queue_wait_us"), 0u);

  sink.release();
  EXPECT_TRUE(running.future.get().ok());
  EXPECT_TRUE(queued.future.get().ok());
  service.shutdown();
  EXPECT_EQ(service.try_submit({hot, SolveOptions{}}).status,
            SubmitStatus::kShutdown);
  EXPECT_EQ(service.submit({hot, SolveOptions{}}).status, SubmitStatus::kShutdown);
}

TEST(BatchSolver, CacheEvictsLeastRecentlyUsed) {
  BatchSolver service(BatchSolverOptions{.threads = 1, .queue_capacity = 0,
                                         .cache_capacity = 2});
  std::vector<Instance> instances = corpus(3);
  for (const Instance& instance : instances) {
    (void)service.submit({instance, SolveOptions{}}).future.get();
  }
  // Capacity 2, three distinct keys: the first instance was evicted.
  BatchSolver::CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  (void)service.submit({instances[0], SolveOptions{}}).future.get();
  EXPECT_EQ(service.cache_stats().misses, 4u);
}

TEST(BatchSolver, CacheDistinguishesOptions) {
  Instance instance = test_instance(3);
  BatchSolver service(BatchSolverOptions{.threads = 1, .queue_capacity = 0,
                                         .cache_capacity = 8});
  SolveOptions exact;
  SolveOptions fast;
  fast.engine = Engine::kFast;
  (void)service.submit({instance, exact}).future.get();
  (void)service.submit({instance, fast}).future.get();
  BatchSolver::CacheStats stats = service.cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(BatchSolver, ExpiredDeadlineComesBackAsStatus) {
  // A deadline already in the past fires at the facade's pre-dispatch poll:
  // deterministic regardless of solver speed.
  BatchSolver service(BatchSolverOptions{.threads = 1, .queue_capacity = 0,
                                         .cache_capacity = 4});
  CancelToken token;
  token.set_deadline(CancelToken::Clock::now() - std::chrono::milliseconds(1));
  SolveRequest request{test_instance(1, 24, 3), SolveOptions{}};
  request.options.cancel = &token;
  SolveResult result = service.submit(std::move(request)).future.get();
  EXPECT_EQ(result.status, SolveStatus::kDeadlineExceeded);
  EXPECT_FALSE(result.ok());
  EXPECT_FALSE(result.error_detail.empty());
  // Abandoned solves never enter the cache.
  EXPECT_EQ(service.cache_stats().misses, 1u);
  SolveRequest retry{test_instance(1, 24, 3), SolveOptions{}};
  EXPECT_TRUE(service.submit(std::move(retry)).future.get().ok());
  EXPECT_EQ(service.cache_stats().hits, 0u);
}

TEST(BatchSolver, CallerCancellationComesBackAsStatus) {
  BatchSolver service(BatchSolverOptions{.threads = 1, .queue_capacity = 0,
                                         .cache_capacity = 0});
  CancelToken token;
  token.request_cancel();  // fired before the request is even admitted
  SolveRequest request{test_instance(2), SolveOptions{}};
  request.options.cancel = &token;
  SolveResult result = service.submit(std::move(request)).future.get();
  EXPECT_EQ(result.status, SolveStatus::kCancelled);
  EXPECT_FALSE(result.error_detail.empty());
}

TEST(BatchSolver, EngineHonoursMidSolveDeadline) {
  // A deadline that expires mid-run is caught at a phase/round checkpoint in
  // the exact engine. Poll a token directly to pin down the engine-level
  // contract without racing wall clocks against solver speed.
  CancelToken token;
  token.set_deadline(CancelToken::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_TRUE(token.deadline_exceeded());
  SolveOptions options;
  options.cancel = &token;
  SolveResult result = solve(test_instance(1), options);
  EXPECT_EQ(result.status, SolveStatus::kDeadlineExceeded);

  CancelToken cancelled;
  cancelled.request_cancel();
  SolveOptions via_flag;
  via_flag.cancel = &cancelled;
  EXPECT_EQ(solve(test_instance(1), via_flag).status, SolveStatus::kCancelled);
}

TEST(BatchSolver, TrySubmitReportsQueueFull) {
  // One worker, capacity 1: hold the worker hostage with a long-running batch
  // of requests, then try_submit until the queue reports full.
  BatchSolver service(BatchSolverOptions{.threads = 1, .queue_capacity = 1,
                                         .cache_capacity = 0});
  std::vector<Submission> held;
  bool saw_queue_full = false;
  for (int i = 0; i < 64 && !saw_queue_full; ++i) {
    Submission submission =
        service.try_submit({test_instance(1, 16, 2), SolveOptions{}});
    if (submission.status == SubmitStatus::kQueueFull) {
      saw_queue_full = true;
    } else {
      ASSERT_EQ(submission.status, SubmitStatus::kAccepted);
      held.push_back(std::move(submission));
    }
  }
  EXPECT_TRUE(saw_queue_full);
  // Backpressure releases: every accepted request still completes.
  for (Submission& submission : held) {
    EXPECT_TRUE(submission.future.get().ok());
  }
}

TEST(BatchSolver, BlockingSubmitWaitsForSpaceInsteadOfDropping) {
  BatchSolver service(BatchSolverOptions{.threads = 2, .queue_capacity = 2,
                                         .cache_capacity = 0});
  std::vector<Submission> submissions;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Submission submission =
        service.submit({test_instance(seed, 12, 2), SolveOptions{}});
    ASSERT_TRUE(submission.accepted());  // blocks, never kQueueFull
    submissions.push_back(std::move(submission));
  }
  for (Submission& submission : submissions) {
    EXPECT_TRUE(submission.future.get().ok());
  }
}

TEST(BatchSolver, HigherPriorityDispatchesFirst) {
  // Single worker; occupy it, fill the queue with a low-priority and then a
  // high-priority request, and watch the completion order invert admission
  // order.
  BatchSolver service(BatchSolverOptions{.threads = 1, .queue_capacity = 0,
                                         .cache_capacity = 0});
  std::atomic<int> order{0};
  // Occupy the worker long enough to enqueue both probes behind it.
  Submission blocker = service.submit({test_instance(1, 24, 2), SolveOptions{}});
  SolveRequest low{test_instance(2, 6, 2), SolveOptions{}};
  low.priority = 0;
  SolveRequest high{test_instance(3, 6, 2), SolveOptions{}};
  high.priority = 5;
  Submission low_run = service.submit(std::move(low));
  Submission high_run = service.submit(std::move(high));
  std::thread low_watch([&] {
    (void)low_run.future.get();
    order.fetch_add(1);
  });
  (void)high_run.future.get();
  int when_high_done = order.load();
  low_watch.join();
  (void)blocker.future.get();
  // When high finished, low had not (0) -- unless the worker popped low before
  // high was admitted, which the blocker exists to prevent; tolerate the race
  // by asserting "high no later than low".
  EXPECT_LE(when_high_done, 1);
}

TEST(BatchSolver, SubmitAfterShutdownReportsShutdown) {
  BatchSolver service(BatchSolverOptions{.threads = 1, .queue_capacity = 0,
                                         .cache_capacity = 0});
  service.shutdown();
  Submission submission = service.submit({test_instance(1), SolveOptions{}});
  EXPECT_EQ(submission.status, SubmitStatus::kShutdown);
  EXPECT_FALSE(submission.accepted());
  EXPECT_EQ(service.try_submit({test_instance(1), SolveOptions{}}).status,
            SubmitStatus::kShutdown);
}

TEST(BatchSolver, ServiceCountersFlowThroughTheRegistry) {
  obs::Registry::global().reset();
  {
    BatchSolver service(BatchSolverOptions{.threads = 2, .queue_capacity = 0,
                                           .cache_capacity = 8});
    Instance instance = test_instance(5);
    (void)service.submit({instance, SolveOptions{}}).future.get();
    (void)service.submit({instance, SolveOptions{}}).future.get();
  }
  obs::Counters counters = obs::Registry::global().snapshot();
  EXPECT_EQ(counters.value("service.submitted"), 2u);
  EXPECT_EQ(counters.value("service.cache_misses"), 1u);
  EXPECT_EQ(counters.value("service.cache_hits"), 1u);
  // The hit was answered at admission and never queued: one queue wait.
  obs::HistogramMap histograms = obs::Registry::global().histogram_snapshot();
  auto it = histograms.find("service.queue_wait_us");
  ASSERT_NE(it, histograms.end());
  EXPECT_EQ(it->second.count, 1u);
  obs::Registry::global().reset();
}

TEST(BatchSolver, WorkerArenasWarmUpAcrossRequests) {
  // Each pool worker owns a thread-pooled scratch arena (S46). The first
  // request a worker handles may grow it; every later request of comparable
  // shape must run allocation-free, which execute() records as
  // service.arena_warm_solves. With 2 workers and 12 uncached requests, at
  // most 2 cold solves are excused.
  obs::Registry::global().reset();
  constexpr std::size_t kRequests = 12;
  {
    BatchSolver service(BatchSolverOptions{.threads = 2, .queue_capacity = 0,
                                           .cache_capacity = 0});
    Instance instance = test_instance(5);  // one shape: warm after one solve
    std::vector<Submission> submissions;
    for (std::uint64_t seed = 1; seed <= kRequests; ++seed) {
      submissions.push_back(service.submit({instance, SolveOptions{}}));
    }
    for (Submission& submission : submissions) {
      ASSERT_TRUE(submission.future.get().ok());
    }
  }
  obs::Counters counters = obs::Registry::global().snapshot();
  EXPECT_GE(counters.value("service.arena_warm_solves"), kRequests - 2);
  obs::Registry::global().reset();
}

TEST(Fingerprint, StableAcrossCopiesAndSensitiveToInputs) {
  Instance instance = test_instance(9);
  SolveOptions options;
  auto fp = solve_fingerprint(instance, options);
  ASSERT_TRUE(fp.has_value());
  // Deterministic across instance copies.
  EXPECT_EQ(fp, solve_fingerprint(Instance(instance), SolveOptions{}));
  // Machine count, engine, and knobs all shift the key.
  EXPECT_NE(fp, solve_fingerprint(instance.with_machines(5), options));
  SolveOptions fast;
  fast.engine = Engine::kFast;
  EXPECT_NE(fp, solve_fingerprint(instance, fast));
  SolveOptions grid;
  grid.lp_grid = 9;
  EXPECT_NE(fp, solve_fingerprint(instance, grid));
  // Execution context (trace sink, cancel token) does not shift the key.
  SolveOptions traced;
  CancelToken token;
  traced.cancel = &token;
  EXPECT_EQ(fp, solve_fingerprint(instance, traced));
}

TEST(Fingerprint, PowerFunctionsCarryValueIdentity) {
  Instance instance = test_instance(9);
  AlphaPower cube_a(3.0), cube_b(3.0), square(2.0);
  SolveOptions a, b, c;
  a.power = &cube_a;
  b.power = &cube_b;
  c.power = &square;
  // Same alpha, different objects: same key. Different alpha: different key.
  EXPECT_EQ(solve_fingerprint(instance, a), solve_fingerprint(instance, b));
  EXPECT_NE(solve_fingerprint(instance, a), solve_fingerprint(instance, c));

  // A custom power function without a stable fingerprint is uncacheable.
  class OpaquePower final : public PowerFunction {
   public:
    [[nodiscard]] double power(double speed) const override { return speed; }
    [[nodiscard]] std::string name() const override { return "opaque"; }
  };
  OpaquePower opaque;
  SolveOptions uncacheable;
  uncacheable.power = &opaque;
  EXPECT_FALSE(solve_fingerprint(instance, uncacheable).has_value());
}

TEST(Fingerprint, SubmitStatusNamesAreStable) {
  EXPECT_STREQ(submit_status_name(SubmitStatus::kAccepted), "accepted");
  EXPECT_STREQ(submit_status_name(SubmitStatus::kQueueFull), "queue_full");
  EXPECT_STREQ(submit_status_name(SubmitStatus::kShutdown), "shutdown");
}

TEST(SolveManyFreeFunction, PreservesInputOrder) {
  std::vector<Instance> instances = corpus(6);
  std::vector<SolveResult> results = solve_many(instances, SolveOptions{}, 2);
  ASSERT_EQ(results.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(results[i].energy, solve(instances[i]).energy);
  }
}

}  // namespace
}  // namespace mpss
