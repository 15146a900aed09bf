// Observability subsystem (S40): counter/timer primitives, the trace-event
// model with its JSONL encoding, the process-wide registry, and -- the part
// that ties telemetry to the paper -- a differential check that the exact
// engine's trace reproduces the phase/round structure of OptimalResult on
// every corpus instance.

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "corpus.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/obs/counters.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/obs/stats.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/util/error.hpp"
#include "mpss/util/thread_pool.hpp"

namespace mpss::obs {
namespace {

TEST(Counters, AddSetValueAndMissingReadsZero) {
  Counters counters;
  EXPECT_TRUE(counters.empty());
  EXPECT_EQ(counters.value("never.touched"), 0u);

  counters.add("rounds");             // default delta 1
  counters.add("rounds", 4);
  counters.add("paths", 7);
  EXPECT_EQ(counters.value("rounds"), 5u);
  EXPECT_EQ(counters.value("paths"), 7u);
  EXPECT_EQ(counters.size(), 2u);

  counters.set("rounds", 2);  // gauge semantics overwrite
  EXPECT_EQ(counters.value("rounds"), 2u);

  counters.clear();
  EXPECT_TRUE(counters.empty());
  EXPECT_EQ(counters.value("rounds"), 0u);
}

TEST(Counters, MergeAddsEveryCounterAndItemsAreNameOrdered) {
  Counters a, b;
  a.add("x", 1);
  a.add("y", 2);
  b.add("y", 10);
  b.add("z", 3);
  a.merge(b);
  EXPECT_EQ(a.value("x"), 1u);
  EXPECT_EQ(a.value("y"), 12u);
  EXPECT_EQ(a.value("z"), 3u);

  std::vector<std::string> names;
  for (const auto& [name, value] : a.items()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"x", "y", "z"}));
}

TEST(ScopedTimer, AccumulatesIntoSecondsOnDestruction) {
  double seconds = 0.0;
  {
    ScopedTimer timer(seconds);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GT(timer.elapsed_seconds(), 0.0);
  }
  EXPECT_GT(seconds, 0.0);
  double first = seconds;
  { ScopedTimer timer(seconds); }  // accumulates, does not overwrite
  EXPECT_GE(seconds, first);
}

TEST(ScopedTimer, CountersFormBumpsNsAndCalls) {
  Counters counters;
  {
    ScopedTimer timer(counters, "plan");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  { ScopedTimer timer(counters, "plan"); }
  EXPECT_EQ(counters.value("plan.calls"), 2u);
  EXPECT_GE(counters.value("plan.ns"), 1'000'000u);  // slept >= 1 ms
}

TEST(ScopedTimer, FreeStandingStopwatchReadsWithoutAccumulating) {
  ScopedTimer stopwatch;
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  double early = stopwatch.elapsed_seconds();
  EXPECT_GT(early, 0.0);
  EXPECT_GE(stopwatch.elapsed_seconds(), early);  // keeps running
}

TEST(Trace, KindNamesRoundTrip) {
  for (auto kind : {EventKind::kSolveStart, EventKind::kSolveEnd,
                    EventKind::kPhaseStart, EventKind::kPhaseEnd,
                    EventKind::kFlowRound, EventKind::kCandidateRemoved,
                    EventKind::kSimplexPivot, EventKind::kArrival,
                    EventKind::kPeel, EventKind::kCounter,
                    EventKind::kSpanBegin, EventKind::kSpanEnd}) {
    EXPECT_EQ(event_kind_from_name(event_kind_name(kind)), kind);
  }
  EXPECT_THROW((void)event_kind_from_name("no_such_kind"), std::invalid_argument);
}

std::vector<TraceEvent> sample_events() {
  std::vector<TraceEvent> events;
  events.push_back({EventKind::kSolveStart, "optimal.solve", 12, 4, 0.0, 0, 0.0});
  events.push_back({EventKind::kFlowRound, "optimal.round", 2, 7, 0.875, 1, 1.5});
  // Labels with characters the JSON encoder must escape.
  events.push_back({EventKind::kCounter, "weird \"label\"\\with\n\tescapes", 0, 0,
                    -3.25e-7, 2, 0.0});
  // Multi-byte UTF-8 label (passes through the encoder byte-for-byte) plus a
  // non-zero span id stamped by an enclosing SpanScope.
  events.push_back(
      {EventKind::kCounter, "durée.µs \xE2\x86\x92 ok", 1, 2, 0.5, 3, 0.0, 7});
  events.push_back({EventKind::kSpanBegin, "optimal.phase", 8, 7, 0.0, 4, 3.5, 7});
  events.push_back({EventKind::kSpanEnd, "optimal.phase", 8, 7, 0.25, 5, 3.75, 7});
  events.push_back({EventKind::kSolveEnd, "optimal.solve", 41, 36, 0.125, 6, 2.0});
  return events;
}

TEST(Trace, JsonlRoundTripPreservesEveryField) {
  std::string text;
  for (const TraceEvent& event : sample_events()) text += to_jsonl(event) + "\n";
  EXPECT_EQ(parse_trace_jsonl(std::string_view(text)), sample_events());
}

TEST(Trace, ParserDecodesUnicodeEscapesIntoUtf8) {
  // \u00e9 = é (two UTF-8 bytes), \u2192 = right arrow (three bytes).
  auto events = parse_trace_jsonl(std::string_view(
      R"({"seq":0,"kind":"counter","label":"dur\u00e9e \u2192 ok","a":0,"b":0,"value":0,"t":0})"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].label, "dur\xC3\xA9"  "e \xE2\x86\x92 ok");
}

TEST(Trace, SpanFieldDefaultsToZeroWhenAbsent) {
  auto events = parse_trace_jsonl(std::string_view(
      R"({"seq":0,"kind":"counter","label":"old.schema","a":0,"b":0,"value":0,"t":0})"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].span, 0u);
}

TEST(Trace, JsonlRoundTripCarriesTraceAndRemoteParent) {
  TraceEvent event;
  event.kind = EventKind::kSpanBegin;
  event.label = "net.request";
  event.a = 2;
  event.seq = 1;
  event.t_seconds = 1.5;
  // A trace id above 2^53: the JSONL codec must keep u64 precision (a double
  // path would silently round it).
  event.trace = 18347587744294764545ull;
  event.remote_parent = 1;

  std::string line = to_jsonl(event);
  EXPECT_NE(line.find("18347587744294764545"), std::string::npos);
  auto events = parse_trace_jsonl(std::string_view(line));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], event);

  // Pre-S47 streams have neither key; both default to 0.
  auto old = parse_trace_jsonl(std::string_view(
      R"({"seq":0,"kind":"counter","label":"old.schema","a":0,"b":0,"value":0,"t":0})"));
  ASSERT_EQ(old.size(), 1u);
  EXPECT_EQ(old[0].trace, 0u);
  EXPECT_EQ(old[0].remote_parent, 0u);
}

TEST(Trace, ParserSkipsBlankLinesAndIgnoresUnknownKeys) {
  std::string text =
      "\n  \t\n"
      R"({"seq":5,"kind":"peel","label":"avr.peel","a":1,"b":2,"value":0.5,"t":0,)"
      R"("future_key":9,"flag":true,"note":"hi","list":[1,"x"],"nested":{"k":[{}]}})"
      "\n\n";
  auto events = parse_trace_jsonl(std::string_view(text));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kPeel);
  EXPECT_EQ(events[0].label, "avr.peel");
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 2u);
  EXPECT_DOUBLE_EQ(events[0].value, 0.5);
}

TEST(Trace, IntegerFieldsMustBeNonNegativeIntegers) {
  for (const char* a : {"-1", "0.5", "1e300", "1-2"}) {
    std::string line = std::string(R"({"kind":"counter","a":)") + a + "}";
    EXPECT_THROW((void)parse_trace_jsonl(line), std::invalid_argument) << line;
  }
  // Integral numbers in other spellings still read exactly.
  auto events = parse_trace_jsonl(std::string_view(R"({"a":1e3,"b":2.0})"));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].a, 1000u);
  EXPECT_EQ(events[0].b, 2u);
}

TEST(Trace, MalformedLinesThrow) {
  EXPECT_THROW((void)parse_trace_jsonl(std::string_view("not json")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_trace_jsonl(std::string_view(R"({"kind":"nope"})")),
               std::invalid_argument);
  EXPECT_THROW((void)parse_trace_jsonl(std::string_view(R"({"a":})")),
               std::invalid_argument);
}

TEST(Trace, JsonlSinkWritesParsableStream) {
  std::ostringstream out;
  JsonlSink sink(out);
  for (const TraceEvent& event : sample_events()) sink.record(event);
  sink.flush();
  std::istringstream in(out.str());
  EXPECT_EQ(parse_trace_jsonl(in), sample_events());
}

TEST(Trace, JsonlSinkPathConstructorThrowsOnUnwritablePath) {
  EXPECT_THROW(JsonlSink("/nonexistent-dir-xyzzy/trace.jsonl"),
               std::invalid_argument);
}

TEST(Trace, JsonlSinkFlushSurfacesStreamFailure) {
  std::ostringstream out;
  JsonlSink sink(out);
  sink.record(sample_events().front());
  EXPECT_TRUE(sink.ok());
  sink.flush();  // healthy stream: no throw
  out.setstate(std::ios::badbit);
  EXPECT_FALSE(sink.ok());
  EXPECT_THROW(sink.flush(), std::runtime_error);
}

TEST(Trace, MemorySinkCountsByKindAndLabel) {
  MemorySink sink;
  for (const TraceEvent& event : sample_events()) sink.record(event);
  EXPECT_EQ(sink.size(), 7u);
  EXPECT_EQ(sink.count(EventKind::kSolveStart), 1u);
  EXPECT_EQ(sink.count(EventKind::kSpanBegin), 1u);
  EXPECT_EQ(sink.count(EventKind::kPhaseEnd), 0u);
  EXPECT_EQ(sink.count_label("optimal.solve"), 2u);
  EXPECT_EQ(sink.count_label("optimal.phase"), 2u);
  EXPECT_EQ(sink.events()[1].b, 7u);
  sink.clear();
  EXPECT_EQ(sink.size(), 0u);
}

TEST(Trace, MemorySinkSurvivesConcurrentEmission) {
  MemorySink sink;
  constexpr std::size_t kEvents = 2000;
  parallel_for(kEvents, [&sink](std::size_t i) {
    emit(&sink, EventKind::kCounter, "stress", i);
  }, 4);
  ASSERT_EQ(sink.size(), kEvents);
  // Global sequence numbers must be unique even under contention.
  std::vector<std::uint64_t> seqs;
  for (const TraceEvent& event : sink.events()) seqs.push_back(event.seq);
  std::sort(seqs.begin(), seqs.end());
  EXPECT_EQ(std::unique(seqs.begin(), seqs.end()), seqs.end());
}

TEST(Trace, EmitFallsBackToRegistrySinkAndIsNoOpWithoutOne) {
  Registry::global().attach_sink(nullptr);
  emit(nullptr, EventKind::kCounter, "dropped");  // no sink anywhere: no-op

  MemorySink sink;
  Registry::global().attach_sink(&sink);
  emit(nullptr, EventKind::kCounter, "via.registry", 3, 4, 0.5);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.events()[0].label, "via.registry");
  EXPECT_EQ(sink.events()[0].a, 3u);

  // NullSink swallows but an explicit sink still wins over the registry one.
  NullSink null;
  emit(&null, EventKind::kCounter, "swallowed");
  EXPECT_EQ(sink.size(), 1u);

  Registry::global().attach_sink(nullptr);
  emit(nullptr, EventKind::kCounter, "dropped.again");
  EXPECT_EQ(sink.size(), 1u);
}

TEST(RegistryCounters, AddMergeSnapshotReset) {
  Registry& registry = Registry::global();
  registry.reset();
  registry.add("test.hits");
  registry.add("test.hits", 2);
  Counters local;
  local.add("test.merged", 5);
  registry.merge(local);
  Counters snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.value("test.hits"), 3u);
  EXPECT_EQ(snapshot.value("test.merged"), 5u);
  registry.reset();
  EXPECT_TRUE(registry.snapshot().empty());
}

TEST(RegistryCounters, ResetRewindsSequenceAndSpanIdWells) {
  Registry& registry = Registry::global();
  registry.reset();
  std::uint64_t seq0 = registry.next_seq();
  std::uint64_t span0 = registry.next_span_id();
  (void)registry.next_seq();
  (void)registry.next_span_id();
  registry.reset();
  // The test-isolation contract (registry.hpp): after reset() the id wells
  // restart, so traces are byte-identical across test orderings.
  EXPECT_EQ(registry.next_seq(), seq0);
  EXPECT_EQ(registry.next_span_id(), span0);
  EXPECT_EQ(seq0, 0u);
  EXPECT_EQ(span0, 1u);  // span ids are 1-based; 0 means "no span"
  registry.reset();
}

TEST(RegistryCounters, TraceIdsAreNonZeroUniqueAndProcessStamped) {
  Registry& registry = Registry::global();
  std::uint64_t first = registry.next_trace_id();
  std::uint64_t second = registry.next_trace_id();
  EXPECT_NE(first, 0u);   // 0 means "untraced" on the wire
  EXPECT_NE(first, second);
  // The high 32 bits carry the per-process nonce, so two daemons minting
  // trace ids concurrently cannot collide; within a process they match.
  EXPECT_EQ(first >> 32, second >> 32);
  EXPECT_NE(first >> 32, 0u);
}

TEST(RegistryCounters, ConcurrentAddsAreLossless) {
  Registry& registry = Registry::global();
  registry.reset();
  constexpr std::size_t kAdds = 4000;
  parallel_for(kAdds, [&registry](std::size_t) { registry.add("test.race"); }, 4);
  EXPECT_EQ(registry.snapshot().value("test.race"), kAdds);
  registry.reset();
}

// --- Telemetry differential: the trace must reproduce the paper's phase/round
// structure exactly as OptimalResult reports it, on every corpus instance. ---

TEST(TelemetryDifferential, TraceMatchesPhaseStructureOnCorpus) {
  auto names = corpus::names();
  ASSERT_GE(names.size(), 8u);
  // The guided solve closes each phase in one round; the all-zero hint runs
  // the plain loop, whose removal rounds the trace must show too; the random
  // removal ablation (E12) drops one candidate per round.
  enum class Mode { kGuided, kAllZeroHint, kRandomRemoval };
  std::size_t ablated_runs = 0;
  std::size_t ablated_removals = 0;
  for (const std::string& name : names) {
    for (const Mode mode : {Mode::kGuided, Mode::kAllZeroHint, Mode::kRandomRemoval}) {
      SCOPED_TRACE(name + (mode == Mode::kGuided        ? " guided"
                           : mode == Mode::kAllZeroHint ? " all-zero hint"
                                                        : " random removal"));
      Instance instance = corpus::load(name);
      MemorySink sink;
      auto run = [&] {
        if (mode == Mode::kGuided) return optimal_schedule(instance, {}, &sink);
        if (mode == Mode::kAllZeroHint) {
          return optimal_schedule_hinted(
              instance, std::vector<std::size_t>(instance.size(), 0), {}, &sink);
        }
        return optimal_schedule(
            instance,
            {.removal_policy = OptimalOptions::RemovalPolicy::kRandomCandidate}, &sink);
      };
      std::optional<OptimalResult> solved;
      try {
        solved = run();
      } catch (const InternalError&) {
        // Random removals may empty a candidate set; the paper's rule may not.
        ASSERT_EQ(mode, Mode::kRandomRemoval);
        continue;
      }
      const OptimalResult& result = *solved;

      // SolveStats mirrors the result's own phase structure.
      EXPECT_EQ(result.stats.phases, result.phases.size());
      EXPECT_GT(result.stats.wall_seconds, 0.0);
      // Every round that does not close a phase removes at least one
      // candidate: Lemma 4 removes every job it excludes at once, the
      // ablation exactly one.
      const std::size_t removal_rounds =
          result.stats.flow_computations - result.phases.size();
      EXPECT_LE(removal_rounds, result.stats.candidate_removals);
      if (mode == Mode::kRandomRemoval) {
        ++ablated_runs;
        ablated_removals += result.stats.candidate_removals;
        EXPECT_EQ(result.stats.candidate_removals, removal_rounds);
      }

      // stats.flow_computations == sum of per-phase rounds, each phase >= 1.
      std::size_t total_rounds = 0;
      for (const PhaseInfo& phase : result.phases) {
        EXPECT_GE(phase.rounds, 1u);
        total_rounds += phase.rounds;
      }
      EXPECT_EQ(total_rounds, result.stats.flow_computations);

      // The trace tells the same story: one kFlowRound per feasibility test
      // and one kPhaseEnd per phase, and per phase a kCandidateRemoved for
      // every job of its start set (kPhaseStart's `b`) that is not in J_i;
      // all grouped by phase via the `a` payload. Only the exact engine's
      // "optimal.*" events count: the fast guide it runs first emits its own
      // under "optimal_fast.*".
      auto events = sink.events();
      auto exact_count = [&events](EventKind kind) {
        return std::count_if(events.begin(), events.end(), [kind](const TraceEvent& e) {
          return e.kind == kind && e.label.starts_with("optimal.");
        });
      };
      EXPECT_EQ(exact_count(EventKind::kSolveStart), 1);
      EXPECT_EQ(exact_count(EventKind::kSolveEnd), 1);
      EXPECT_EQ(exact_count(EventKind::kPhaseEnd), std::ssize(result.phases));
      EXPECT_EQ(exact_count(EventKind::kFlowRound),
                static_cast<std::ptrdiff_t>(result.stats.flow_computations));
      EXPECT_EQ(exact_count(EventKind::kCandidateRemoved),
                static_cast<std::ptrdiff_t>(result.stats.candidate_removals));
      const std::size_t phases = result.phases.size();
      std::vector<std::size_t> rounds(phases, 0), start_size(phases, 0), removed(phases, 0);
      for (const TraceEvent& event : events) {
        if (!event.label.starts_with("optimal.")) continue;
        const bool round = event.kind == EventKind::kFlowRound;
        const bool start = event.kind == EventKind::kPhaseStart;
        const bool removal = event.kind == EventKind::kCandidateRemoved;
        if (!round && !start && !removal) continue;
        ASSERT_LT(event.a, phases) << event.label;
        if (round) ++rounds[event.a];
        if (start) start_size[event.a] = event.b;
        if (removal) ++removed[event.a];
      }
      for (std::size_t i = 0; i < phases; ++i) {
        EXPECT_EQ(rounds[i], result.phases[i].rounds) << "phase " << i;
        EXPECT_EQ(removed[i], start_size[i] - result.phases[i].jobs.size()) << "phase " << i;
      }
    }
  }
  // The ablated equality must be checked on runs that removed something.
  EXPECT_GE(ablated_runs, 3u) << "too few ablated runs completed";
  EXPECT_GT(ablated_removals, 0u);
}

TEST(TelemetryDifferential, StatsSchemaDocumentedCountersArePresent) {
  Instance instance = corpus::load(corpus::names().front());
  OptimalResult result = optimal_schedule(instance);
  EXPECT_GT(result.stats.counters.value("optimal.intervals"), 0u);
  EXPECT_GT(result.stats.flow_bfs_rounds, 0u);
  EXPECT_GT(result.stats.flow_augmenting_paths, 0u);

  // merge() is field-wise additive (OA aggregates inner solves through it).
  SolveStats sum;
  sum.merge(result.stats);
  sum.merge(result.stats);
  EXPECT_EQ(sum.phases, 2 * result.stats.phases);
  EXPECT_EQ(sum.flow_computations, 2 * result.stats.flow_computations);
  EXPECT_EQ(sum.counters.value("optimal.intervals"),
            2 * result.stats.counters.value("optimal.intervals"));
}

}  // namespace
}  // namespace mpss::obs
