// Hierarchical spans (S43): RAII begin/end pairing, parent tracking through
// the thread-local span stack, span-id stamping into ordinary events, the
// registry-sink fallback, per-thread independence under the ThreadPool, and
// the headline attribution property -- on a real corpus solve the root span
// covers (almost all of) the engine's reported wall time, for both offline
// engines.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/core/optimal_fast.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/obs/span.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/util/thread_pool.hpp"

namespace mpss::obs {
namespace {

/// Spans must not leak across test cases: every test that opens spans closes
/// them before asserting, and detaches any registry sink it attached.
class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().attach_sink(nullptr);
    Registry::global().reset();
  }
  void TearDown() override {
    Registry::global().attach_sink(nullptr);
    Registry::global().reset();
  }
};

TEST_F(SpanTest, InactiveWithoutAnySink) {
  SpanScope span(nullptr, "no.sink");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  EXPECT_EQ(current_span(), 0u);
  EXPECT_DOUBLE_EQ(span.elapsed_seconds(), 0.0);
}

TEST_F(SpanTest, EmitsBeginEndPairWithMatchingIdsAndDuration) {
  MemorySink sink;
  {
    SpanScope span(&sink, "outer");
    EXPECT_TRUE(span.active());
    EXPECT_EQ(current_span(), span.id());
  }
  EXPECT_EQ(current_span(), 0u);

  auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kSpanBegin);
  EXPECT_EQ(events[1].kind, EventKind::kSpanEnd);
  EXPECT_EQ(events[0].label, "outer");
  EXPECT_EQ(events[0].a, events[1].a);  // same span id
  EXPECT_EQ(events[0].b, 0u);          // root: no parent
  EXPECT_GE(events[1].value, 0.0);     // duration in seconds
  // Span events carry timestamps even without MPSS_TRACING; end >= begin.
  EXPECT_GT(events[0].t_seconds, 0.0);
  EXPECT_GE(events[1].t_seconds, events[0].t_seconds);
}

TEST_F(SpanTest, NestingRecordsParentAndRestoresIt) {
  MemorySink sink;
  SpanId outer_id = 0;
  SpanId inner_id = 0;
  {
    SpanScope outer(&sink, "outer");
    outer_id = outer.id();
    {
      SpanScope inner(&sink, "inner");
      inner_id = inner.id();
      EXPECT_EQ(current_span(), inner_id);
      EXPECT_NE(inner_id, outer_id);
    }
    EXPECT_EQ(current_span(), outer_id);  // restored after inner closes
  }
  auto events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // inner's begin event carries outer as parent (b payload and span stamp).
  const TraceEvent* inner_begin = nullptr;
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::kSpanBegin && e.label == "inner") inner_begin = &e;
  }
  ASSERT_NE(inner_begin, nullptr);
  EXPECT_EQ(inner_begin->a, inner_id);
  EXPECT_EQ(inner_begin->b, outer_id);
  EXPECT_EQ(inner_begin->span, outer_id);
}

// ---- distributed trace context (S47) ---------------------------------------

TEST_F(SpanTest, TraceContextStampsTraceIdAndRestoresOnExit) {
  MemorySink sink;
  {
    TraceContextScope scope(TraceContext{42, 0, 0});
    EXPECT_EQ(current_trace().trace_id, 42u);
    SpanScope span(&sink, "traced");
    emit(&sink, EventKind::kCounter, "traced.event", 1);
  }
  EXPECT_EQ(current_trace().trace_id, 0u);
  for (const TraceEvent& event : sink.events()) {
    EXPECT_EQ(event.trace, 42u) << event.label;
  }
}

TEST_F(SpanTest, RootSpanAdoptsLocalParentFromContext) {
  MemorySink sink;
  TraceContextScope scope(TraceContext{42, /*local_parent=*/7, 0});
  SpanScope root(&sink, "root");
  SpanScope child(&sink, "child");
  auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].b, 7u);         // root crosses the thread boundary
  EXPECT_EQ(events[0].remote_parent, 0u);
  EXPECT_EQ(events[1].b, root.id());  // non-roots still follow the stack
}

TEST_F(SpanTest, RootSpanRecordsRemoteParentFromContext) {
  MemorySink sink;
  TraceContextScope scope(TraceContext{42, 0, /*remote_parent=*/9});
  SpanScope root(&sink, "root");
  auto events = sink.events();
  ASSERT_EQ(events.size(), 1u);
  // A peer process's span id cannot become b (it lives in another id
  // namespace); it travels in remote_parent for the offline merge.
  EXPECT_EQ(events[0].b, 0u);
  EXPECT_EQ(events[0].remote_parent, 9u);
}

TEST_F(SpanTest, ParentBearingContextReRootsPastOpenWrapperSpans) {
  MemorySink sink;
  SpanScope wrapper(&sink, "pool.task");  // a worker loop's long-lived span
  {
    TraceContextScope scope(TraceContext{42, /*local_parent=*/7, 0});
    EXPECT_EQ(current_span(), 0u);  // the wrapper is stashed, not visible
    SpanScope request(&sink, "service.request");
    ASSERT_TRUE(request.active());
  }
  EXPECT_EQ(current_span(), wrapper.id());  // restored with the context
  auto events = sink.events();
  ASSERT_EQ(events.size(), 3u);  // wrapper begin, request begin+end
  EXPECT_EQ(events[1].label, "service.request");
  EXPECT_EQ(events[1].b, 7u);  // adopted the context parent, not the wrapper
}

TEST_F(SpanTest, ParentlessContextLeavesTheSpanStackAlone) {
  MemorySink sink;
  SpanScope wrapper(&sink, "outer");
  TraceContextScope scope(TraceContext{42, 0, 0});
  SpanScope inner(&sink, "inner");
  auto events = sink.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].b, wrapper.id());  // ordinary nesting is untouched
  EXPECT_EQ(events[1].trace, 42u);
}

TEST_F(SpanTest, OrdinaryEmitsAreStampedWithEnclosingSpan) {
  MemorySink sink;
  emit(&sink, EventKind::kCounter, "before");
  {
    SpanScope span(&sink, "work");
    emit(&sink, EventKind::kCounter, "inside");
    ASSERT_EQ(sink.events().back().label, "inside");
    EXPECT_EQ(sink.events().back().span, span.id());
  }
  emit(&sink, EventKind::kCounter, "after");
  EXPECT_EQ(sink.events().front().span, 0u);
  EXPECT_EQ(sink.events().back().span, 0u);
}

TEST_F(SpanTest, FallsBackToRegistrySink) {
  MemorySink sink;
  Registry::global().attach_sink(&sink);
  { SpanScope span(nullptr, "via.registry"); }
  Registry::global().attach_sink(nullptr);
  EXPECT_EQ(sink.count(EventKind::kSpanBegin), 1u);
  EXPECT_EQ(sink.count(EventKind::kSpanEnd), 1u);
  EXPECT_EQ(sink.events().front().label, "via.registry");
}

TEST_F(SpanTest, ThreadsGetDistinctSpanIdsAndIndependentStacks) {
  MemorySink sink;
  constexpr std::size_t kTasks = 64;
  parallel_for(kTasks, [&sink](std::size_t) {
    SpanScope span(&sink, "task");
    emit(&sink, EventKind::kCounter, "tick");
  }, 4);

  auto events = sink.events();
  std::vector<std::uint64_t> ids;
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::kSpanBegin) ids.push_back(e.a);
  }
  ASSERT_EQ(ids.size(), kTasks);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());  // all distinct

  // Every tick is stamped with the begin/end pair it sits between on its own
  // thread: the stamp equals some task span, never 0.
  for (const TraceEvent& e : events) {
    if (e.kind == EventKind::kCounter) {
      EXPECT_NE(e.span, 0u);
    }
  }
}

TEST_F(SpanTest, ThreadIndexIsStablePerThread) {
  std::uint64_t first = thread_index();
  EXPECT_EQ(thread_index(), first);
}

// --- Attribution: the reason spans exist. On every corpus instance the
// engine's root span must cover >= 95% of stats.wall_seconds (by construction
// the span opens before the ScopedTimer and closes after it is read, so this
// holds deterministically -- the test guards the declaration order). ---

/// Runs one offline engine on `instance` with `sink` attached and returns its
/// reported wall time; `prefix` is the engine's span label prefix.
double solve_traced(const std::string& prefix, const Instance& instance,
                    MemorySink& sink) {
  if (prefix == "optimal") {
    return optimal_schedule(instance, OptimalOptions{}, &sink).stats.wall_seconds;
  }
  return optimal_schedule_fast(instance, FastOptimalOptions{}, &sink).stats.wall_seconds;
}

const std::vector<std::string> kEnginePrefixes = {"optimal", "optimal_fast"};

TEST_F(SpanTest, RootSolveSpanCoversWallTimeOnCorpus) {
  auto names = corpus::names();
  ASSERT_GE(names.size(), 1u);
  for (const std::string& prefix : kEnginePrefixes) {
    for (const std::string& name : names) {
      SCOPED_TRACE(prefix + " " + name);
      Instance instance = corpus::load(name);
      MemorySink sink;
      const double wall_seconds = solve_traced(prefix, instance, sink);

      double root_seconds = 0.0;
      for (const TraceEvent& e : sink.events()) {
        if (e.kind == EventKind::kSpanEnd && e.label == prefix + ".solve" && e.b == 0) {
          root_seconds += e.value;
        }
      }
      EXPECT_GE(root_seconds, 0.95 * wall_seconds);
    }
  }
}

TEST_F(SpanTest, SolveTraceNestsRoundsUnderPhasesUnderSolve) {
  Instance instance = corpus::load(corpus::names().front());
  for (const std::string& prefix : kEnginePrefixes) {
    SCOPED_TRACE(prefix);
    MemorySink sink;
    (void)solve_traced(prefix, instance, sink);

    std::map<std::uint64_t, std::string> label_of;  // span id -> label
    std::map<std::uint64_t, std::uint64_t> parent_of;
    for (const TraceEvent& e : sink.events()) {
      if (e.kind != EventKind::kSpanBegin) continue;
      label_of[e.a] = e.label;
      parent_of[e.a] = e.b;
    }
    ASSERT_FALSE(label_of.empty());
    std::size_t solves = 0;
    std::size_t phases = 0;
    std::size_t rounds = 0;
    for (const auto& [id, label] : label_of) {
      if (label == prefix + ".solve") {
        ++solves;
        EXPECT_EQ(parent_of[id], 0u);
      } else if (label == prefix + ".phase") {
        ++phases;
        EXPECT_EQ(label_of.at(parent_of.at(id)), prefix + ".solve");
      } else if (label == prefix + ".round") {
        ++rounds;
        EXPECT_EQ(label_of.at(parent_of.at(id)), prefix + ".phase");
      }
    }
    EXPECT_EQ(solves, 1u);
    EXPECT_GE(phases, 1u);
    EXPECT_GE(rounds, 1u);
  }
}

}  // namespace
}  // namespace mpss::obs
