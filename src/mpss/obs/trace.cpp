#include "mpss/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "mpss/obs/registry.hpp"
#include "mpss/obs/span.hpp"
#include "mpss/util/error.hpp"
#include "mpss/util/json.hpp"

namespace mpss::obs {
namespace {

constexpr const char* kKindNames[] = {
    "solve_start", "solve_end",     "phase_start", "phase_end",    "flow_round",
    "candidate_removed", "simplex_pivot", "arrival", "peel", "counter",
    "span_begin", "span_end",
};
constexpr std::size_t kKindCount = sizeof(kKindNames) / sizeof(kKindNames[0]);

/// One JSONL object as an event: integer fields through as_u64 (exact, and
/// never a negative or out-of-range number through a cast), absent keys left
/// at their defaults, unknown keys of any type ignored.
TraceEvent event_from_json(json::Ref line) {
  TraceEvent event;
  for (const auto& [key, value] : line.as_object()) {
    if (key == "seq") event.seq = value.as_u64();
    else if (key == "kind") event.kind = event_kind_from_name(value.as_string());
    else if (key == "label") event.label = value.as_string();
    else if (key == "a") event.a = value.as_u64();
    else if (key == "b") event.b = value.as_u64();
    else if (key == "span") event.span = value.as_u64();
    else if (key == "value") event.value = value.as_double();
    else if (key == "t") event.t_seconds = value.as_double();
    else if (key == "trace") event.trace = value.as_u64();
    else if (key == "rparent") event.remote_parent = value.as_u64();
  }
  return event;
}

}  // namespace

const char* event_kind_name(EventKind kind) {
  auto index = static_cast<std::size_t>(kind);
  check_internal(index < kKindCount, "event_kind_name: unknown EventKind");
  return kKindNames[index];
}

EventKind event_kind_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kKindCount; ++i) {
    if (name == kKindNames[i]) return static_cast<EventKind>(i);
  }
  throw std::invalid_argument("event_kind_from_name: unknown kind '" +
                              std::string(name) + "'");
}

void MemorySink::record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(event);
}

std::vector<TraceEvent> MemorySink::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::size_t MemorySink::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::size_t MemorySink::count(EventKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const TraceEvent& e) { return e.kind == kind; }));
}

std::size_t MemorySink::count_label(std::string_view label) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [label](const TraceEvent& e) { return e.label == label; }));
}

void MemorySink::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

JsonlSink::JsonlSink(std::ostream& out) : out_(&out) {}

JsonlSink::JsonlSink(const std::string& path) : file_(path), out_(&file_) {
  check_arg(static_cast<bool>(file_), "JsonlSink: cannot open trace file");
}

JsonlSink::~JsonlSink() {
  // Destructors must not throw; the best-effort flush still completes the
  // trace on every non-failing stream. Callers that need failures surfaced
  // call flush() explicitly.
  std::lock_guard<std::mutex> lock(mutex_);
  out_->flush();
}

void JsonlSink::record(const TraceEvent& event) {
  std::string line = to_jsonl(event);
  std::lock_guard<std::mutex> lock(mutex_);
  *out_ << line << '\n';
}

void JsonlSink::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  out_->flush();
  if (out_->bad() || out_->fail()) {
    throw std::runtime_error(
        "JsonlSink: trace stream write failed (events were lost)");
  }
}

bool JsonlSink::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !(out_->bad() || out_->fail());
}

std::string to_jsonl(const TraceEvent& event) {
  std::string line;
  json::Writer out(line);
  out.begin_object();
  out.key("seq").integer(event.seq);
  out.key("kind").string(event_kind_name(event.kind));
  out.key("label").string(event.label);
  out.key("a").integer(event.a);
  out.key("b").integer(event.b);
  out.key("span").integer(event.span);
  out.key("value").number(event.value);
  out.key("t").number(event.t_seconds);
  // Emitted only when set: untraced output stays byte-identical to the
  // pre-distributed-tracing encoding (differential tests pin those bytes).
  if (event.trace != 0) out.key("trace").integer(event.trace);
  if (event.remote_parent != 0) out.key("rparent").integer(event.remote_parent);
  out.end_object();
  return line;
}

std::vector<TraceEvent> parse_trace_jsonl(std::istream& in) {
  std::vector<TraceEvent> events;
  std::string line;
  for (std::size_t number = 1; std::getline(in, line); ++number) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      json::Document document(line);
      events.push_back(event_from_json(document.root()));
    } catch (const std::invalid_argument& error) {
      throw std::invalid_argument("parse_trace_jsonl: line " + std::to_string(number) +
                                  ": " + error.what() + ": " + line);
    }
  }
  return events;
}

std::vector<TraceEvent> parse_trace_jsonl(std::string_view text) {
  std::istringstream in{std::string(text)};
  return parse_trace_jsonl(in);
}

void emit(TraceSink* sink, EventKind kind, std::string_view label, std::uint64_t a,
          std::uint64_t b, double value) {
  if (sink == nullptr) sink = Registry::global().sink();
  if (sink == nullptr) return;
  TraceEvent event;
  event.kind = kind;
  event.label = std::string(label);
  event.a = a;
  event.b = b;
  event.value = value;
  event.seq = Registry::global().next_seq();
  event.span = current_span();  // nests the event under the innermost open span
  event.trace = current_trace().trace_id;
  if constexpr (kTimestampedTracing) {
    event.t_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
            .count();
  }
  sink->record(event);
}

}  // namespace mpss::obs
