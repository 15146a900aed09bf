#pragma once
// Trace-event model and pluggable sinks (observability subsystem S40, see
// DESIGN.md).
//
// Engines emit small fixed-shape events (phase start/end, flow round, simplex
// pivot, candidate removal, arrival, ...) through obs::emit(). Emission is
// runtime-gated: with no sink attached the cost is one pointer test, so the
// default solver paths stay effectively free of instrumentation overhead.
// Sinks must be thread-safe -- the executor and thread-pool paths record
// concurrently.
//
// Builds configured with -DMPSS_TRACING=ON additionally stamp every event with
// a steady-clock timestamp (`t_seconds`). The default build skips the clock
// read per event; timestamps then read 0.

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace mpss::obs {

/// True when the library was compiled with -DMPSS_TRACING=ON (per-event
/// timestamps enabled).
#if defined(MPSS_TRACING)
inline constexpr bool kTimestampedTracing = true;
#else
inline constexpr bool kTimestampedTracing = false;
#endif

/// What happened. One enumerator per instrumentation site family; the `label`
/// string on the event pins down the exact site ("optimal.round", ...).
enum class EventKind : std::uint8_t {
  kSolveStart,        // an engine run began             a=jobs, b=machines
  kSolveEnd,          // an engine run finished          a/b engine-specific, value=seconds
  kPhaseStart,        // offline engine phase i began    a=phase
  kPhaseEnd,          // phase i identified              a=phase, b=rounds, value=speed
  kFlowRound,         // one max-flow feasibility test   a=phase, b=round, value=flow/target
  kCandidateRemoved,  // Lemma-4 removal                 a=phase, b=job
  kSimplexPivot,      // one tableau pivot               a=entering, b=leaving, value=ratio
  kArrival,           // online re-planning event        a=event, b=available, value=seconds
  kPeel,              // AVR dedicated-processor branch  a=interval, b=job, value=density
  kCounter,           // free-form counter-style event
  kSpanBegin,         // SpanScope opened (span.hpp)     a=span id, b=parent id, value=thread index
  kSpanEnd,           // SpanScope closed                a=span id, b=parent id, value=seconds
};

/// Stable lowercase name ("flow_round") used by the JSONL encoding.
[[nodiscard]] const char* event_kind_name(EventKind kind);

/// Inverse of event_kind_name. Throws std::invalid_argument on unknown names.
[[nodiscard]] EventKind event_kind_from_name(std::string_view name);

/// One trace record. Integer payloads a/b and the double payload carry
/// kind-specific data (see EventKind); label identifies the emission site.
struct TraceEvent {
  EventKind kind = EventKind::kCounter;
  std::string label;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double value = 0.0;
  std::uint64_t seq = 0;     // process-wide emission order (obs::Registry)
  double t_seconds = 0.0;    // steady-clock stamp; 0 unless MPSS_TRACING build
                             // (span begin/end events are always stamped)
  std::uint64_t span = 0;    // innermost span open on the emitting thread when
                             // this event fired (span.hpp); 0 = none
  std::uint64_t trace = 0;   // distributed trace id inherited from the active
                             // TraceContext (span.hpp); 0 = no trace context
  std::uint64_t remote_parent = 0;  // span id in a *peer process* this event's
                                    // span parents under (span begins only);
                                    // resolved by mpss_trace's multi-file merge

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Destination for trace events. Implementations must tolerate concurrent
/// record() calls (engines may run inside parallel_for sweeps).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& event) = 0;
  virtual void flush() {}
};

/// Swallows everything; handy as an explicit "tracing off" argument.
class NullSink final : public TraceSink {
 public:
  void record(const TraceEvent&) override {}
};

/// Collects events in memory (mutex-protected). The unit tests and the
/// telemetry differential tests inspect solver behaviour through this.
class MemorySink final : public TraceSink {
 public:
  void record(const TraceEvent& event) override;

  /// Snapshot of all recorded events in record order.
  [[nodiscard]] std::vector<TraceEvent> events() const;
  [[nodiscard]] std::size_t size() const;
  /// Number of recorded events of `kind`.
  [[nodiscard]] std::size_t count(EventKind kind) const;
  /// Number of recorded events with label `label`.
  [[nodiscard]] std::size_t count_label(std::string_view label) const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// Streams events as one JSON object per line (JSONL), the format
/// tools/mpss_trace consumes. Writing is mutex-protected. The destructor
/// flushes, so a trace is complete without an explicit flush() call; an
/// explicit flush() additionally *surfaces* stream write failures (disk
/// full, closed pipe) as std::runtime_error instead of truncating silently
/// -- call it once after a traced run when the trace matters.
class JsonlSink final : public TraceSink {
 public:
  /// Writes to a caller-owned stream (must outlive the sink).
  explicit JsonlSink(std::ostream& out);
  /// Opens `path` for writing; throws std::invalid_argument on failure.
  explicit JsonlSink(const std::string& path);
  /// Flushes (best effort, never throws).
  ~JsonlSink() override;

  void record(const TraceEvent& event) override;
  /// Flushes and throws std::runtime_error if the stream has failed (badbit
  /// or failbit) -- the only place a lost trace becomes visible.
  void flush() override;

  /// True while no stream write has failed.
  [[nodiscard]] bool ok() const;

 private:
  std::ofstream file_;  // used only by the path constructor
  std::ostream* out_;
  mutable std::mutex mutex_;
};

/// The JSONL encoding of one event (no trailing newline), a util/json object
/// with its members in this order:
/// {"seq":12,"kind":"flow_round","label":"optimal.round","a":0,"b":3,
///  "span":7,"value":0.75,"t":0.00121}
/// The cross-process fields are emitted only when nonzero -- appended as
/// "trace":N and "rparent":N after "t" -- so untraced output stays
/// byte-identical to the pre-distributed-tracing encoding.
[[nodiscard]] std::string to_jsonl(const TraceEvent& event);

/// Parses JSONL produced by JsonlSink back into events, one JSON object per
/// non-blank line. The integer fields (seq, a, b, span, trace, rparent) must be
/// non-negative integers (json::Ref::as_u64); absent keys keep their
/// defaults and unknown keys of any type are ignored (forward compatibility).
/// Anything else throws std::invalid_argument naming the line.
[[nodiscard]] std::vector<TraceEvent> parse_trace_jsonl(std::string_view text);
[[nodiscard]] std::vector<TraceEvent> parse_trace_jsonl(std::istream& in);

/// Emits one event. `sink == nullptr` falls back to the process-wide sink
/// attached to obs::Registry::global(); if that is also absent the call is a
/// no-op (one branch). Fills seq, the active trace id (span.hpp) and, in
/// MPSS_TRACING builds, t_seconds.
void emit(TraceSink* sink, EventKind kind, std::string_view label,
          std::uint64_t a = 0, std::uint64_t b = 0, double value = 0.0);

}  // namespace mpss::obs
