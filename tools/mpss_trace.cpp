// mpss_trace: summarizes JSONL solver traces (obs::JsonlSink output) into
// per-stage tables, a hierarchical span profile, a Prometheus snapshot, or a
// Chrome trace file.
//
//   mpss_trace <trace.jsonl> [more.jsonl ...] [--csv] [--events] [--report]
//              [--top=N] [--chrome=out.json] [--prom]
//
// Multiple trace files are merged: the tables and --report aggregate over the
// concatenation, and --chrome joins the files into ONE timeline -- each file
// becomes a Chrome "pid", span ids are namespaced per file, and a span whose
// begin event carries "rparent" (a span id of a *peer process*, stamped by the
// daemon when a request arrived with the protocol's trace header) is
// re-parented under the matching span of the other file, which is how a
// client's client.solve span becomes the ancestor of the server's
// net.request -> service.request -> <engine> subtree. Steady-clock timestamps
// on Linux come from the machine-wide CLOCK_MONOTONIC, so cross-process
// timelines align without negotiation.
//
// Default mode prints, per engine run found in the trace:
//   * an event-kind summary (count per kind),
//   * a per-phase table (rounds, removals, final speed) for the offline
//     engines -- the paper's phase structure read straight off the trace,
//   * a warm-start summary (resumed flow rounds and their BFS passes) when the
//     offline engines resumed any flow round,
//   * an arena-memory summary (scratch capacity, fallback heap blocks, warm
//     reuse cycles) when the engines emitted "<engine>.arena" events,
//   * a simplex summary when LP pivots are present,
//   * a service table (requests by SolveStatus, cache hits/misses/evictions)
//     when BatchSolver events are present,
//   * a net table (requests, responses, bytes, disconnect cancellations) when
//     solve-daemon events are present,
//   * an arrival table when online re-planning events are present.
//
// --report prints the span profile instead: per span label, the call count,
// total (inclusive) seconds, self seconds (total minus direct children), and
// the self share of all span time, hottest first (--top=N rows, default 20).
//
// --chrome=out.json writes the span tree in the Chrome trace-event format
// ({"traceEvents": [...]}, "X" complete events plus "i" instants), loadable in
// chrome://tracing and Perfetto. Each event is one util/json object, streamed
// as it is built; ts and dur are microseconds at full double precision.
//
// --prom replays the trace into a Prometheus text-format snapshot on stdout:
// one counter per kCounter label (occurrence count), span durations as
// span_<label>_us histograms, and the daemon's request/queue-wait latency
// histograms reconstructed from net.response / service.queue_wait events --
// the offline twin of the live GET /metrics endpoint.
//
// Exit codes (stable, CI-checked):
//   0  success
//   1  usage error (bad flags, missing positional, --help is still 0)
//   2  input file missing or unreadable
//   3  malformed JSONL (parse error; message names the offending line)
//
// --csv switches the tables to RFC-4180 CSV; --events dumps the raw events
// back out (parse check only).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mpss/obs/counters.hpp"
#include "mpss/obs/export.hpp"
#include "mpss/obs/histogram.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/solve.hpp"
#include "mpss/util/cli.hpp"
#include "mpss/util/json.hpp"
#include "mpss/util/table.hpp"

namespace {

using mpss::Table;
using mpss::obs::EventKind;
using mpss::obs::TraceEvent;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitMissingFile = 2;
constexpr int kExitMalformed = 3;

void print_table(const Table& table, bool csv) {
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\n";
}

/// Label prefix up to the first '.' ("optimal.round" -> "optimal"): one engine
/// run's events share a prefix, which keeps mixed traces readable.
std::string label_prefix(const std::string& label) {
  auto dot = label.find('.');
  return dot == std::string::npos ? label : label.substr(0, dot);
}

/// A histogram's count, p50/p90/p99 and max under `title`; nothing if empty.
void latency_table(const char* title, const mpss::obs::HistogramData& data,
                   bool csv) {
  if (data.empty()) return;
  mpss::obs::Percentiles latency = mpss::obs::percentiles(data);
  std::cout << title << "\n";
  Table table({"count", "p50", "p90", "p99", "max"});
  table.row(data.count, latency.p50, latency.p90, latency.p99, data.max);
  print_table(table, csv);
}

void kind_summary(const std::vector<TraceEvent>& events, bool csv) {
  std::map<std::string, std::size_t> counts;
  for (const TraceEvent& event : events) {
    ++counts[mpss::obs::event_kind_name(event.kind)];
  }
  Table table({"kind", "events"});
  for (const auto& [kind, count] : counts) table.row(kind, count);
  print_table(table, csv);
}

void phase_tables(const std::vector<TraceEvent>& events, bool csv) {
  // Per engine prefix: phase -> (rounds from kPhaseEnd, removal count).
  struct PhaseRow {
    std::size_t rounds = 0;
    std::size_t removals = 0;
    double speed = 0.0;
  };
  std::map<std::string, std::map<std::uint64_t, PhaseRow>> engines;
  for (const TraceEvent& event : events) {
    std::string prefix = label_prefix(event.label);
    if (event.kind == EventKind::kPhaseEnd) {
      PhaseRow& row = engines[prefix][event.a];
      row.rounds = event.b;
      row.speed = event.value;
    } else if (event.kind == EventKind::kCandidateRemoved) {
      ++engines[prefix][event.a].removals;
    }
  }
  for (const auto& [engine, phases] : engines) {
    std::cout << "phases [" << engine << "]\n";
    Table table({"phase", "rounds", "removals", "speed"});
    std::size_t total_rounds = 0;
    std::size_t total_removals = 0;
    for (const auto& [phase, row] : phases) {
      table.row(phase, row.rounds, row.removals, Table::num(row.speed, 6));
      total_rounds += row.rounds;
      total_removals += row.removals;
    }
    table.row("total", total_rounds, total_removals, "");
    print_table(table, csv);
  }
}

void warm_start_table(const std::vector<TraceEvent>& events, bool csv) {
  // The offline engines emit one "<engine>.warm_start" kCounter event per
  // resumed flow round (a = phase, b = round, value = resume BFS passes).
  struct WarmRow {
    std::size_t resumes = 0;
    double resume_bfs = 0.0;
  };
  std::map<std::string, WarmRow> engines;
  for (const TraceEvent& event : events) {
    if (event.kind != EventKind::kCounter) continue;
    if (!event.label.ends_with(".warm_start")) continue;
    WarmRow& row = engines[label_prefix(event.label)];
    ++row.resumes;
    row.resume_bfs += event.value;
  }
  if (engines.empty()) return;
  std::cout << "warm starts\n";
  Table table({"engine", "resumes", "resume_bfs"});
  for (const auto& [engine, row] : engines) {
    table.row(engine, row.resumes, static_cast<std::size_t>(row.resume_bfs));
  }
  print_table(table, csv);
}

void memory_table(const std::vector<TraceEvent>& events, bool csv) {
  // The offline engines emit one "<engine>.arena" kCounter event per solve
  // (a = arena capacity bytes, b = fallback heap blocks this solve, value =
  // cumulative warm reuse cycles of the pooled arena). A warm solve shows
  // fallbacks == 0; capacity is the high-water scratch footprint.
  struct MemRow {
    std::size_t solves = 0;
    std::size_t arena_bytes = 0;  // max over solves
    std::size_t fallbacks = 0;    // summed over solves
    double reuses = 0.0;          // max (the counter is cumulative)
  };
  std::map<std::string, MemRow> engines;
  for (const TraceEvent& event : events) {
    if (event.kind != EventKind::kCounter) continue;
    if (!event.label.ends_with(".arena")) continue;
    MemRow& row = engines[label_prefix(event.label)];
    ++row.solves;
    row.arena_bytes = std::max(row.arena_bytes, static_cast<std::size_t>(event.a));
    row.fallbacks += static_cast<std::size_t>(event.b);
    row.reuses = std::max(row.reuses, event.value);
  }
  if (engines.empty()) return;
  std::cout << "arena memory\n";
  Table table({"engine", "solves", "arena_bytes", "fallback_allocs", "reuses"});
  for (const auto& [engine, row] : engines) {
    table.row(engine, row.solves, row.arena_bytes, row.fallbacks,
              static_cast<std::size_t>(row.reuses));
  }
  print_table(table, csv);
}

void simplex_table(const std::vector<TraceEvent>& events, bool csv) {
  std::size_t pivots = 0;
  std::size_t degenerate = 0;
  for (const TraceEvent& event : events) {
    if (event.kind != EventKind::kSimplexPivot) continue;
    ++pivots;
    if (event.value <= 1e-9) ++degenerate;
  }
  if (pivots == 0) return;
  std::cout << "simplex\n";
  Table table({"pivots", "degenerate"});
  table.row(pivots, degenerate);
  print_table(table, csv);
}

void service_table(const std::vector<TraceEvent>& events, bool csv) {
  // The BatchSolver emits one "service.done" kCounter event per completed
  // request (a = SolveStatus, b = 1 when served from the cache, value = request
  // seconds) plus cache_hit/cache_miss/cache_evict markers, and each worker one
  // "service.queue_wait" per dispatched request (a = admission-to-dispatch
  // microseconds): the offline rebuild of the service.queue_wait_us histogram.
  struct StatusRow {
    std::size_t requests = 0;
    std::size_t cached = 0;
    double seconds = 0.0;
  };
  std::map<std::uint64_t, StatusRow> by_status;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  mpss::obs::HistogramData queue_wait;
  for (const TraceEvent& event : events) {
    if (event.kind != EventKind::kCounter) continue;
    if (event.label == "service.done") {
      StatusRow& row = by_status[event.a];
      ++row.requests;
      if (event.b != 0) ++row.cached;
      row.seconds += event.value;
    } else if (event.label == "service.cache_hit") {
      ++hits;
    } else if (event.label == "service.cache_miss") {
      ++misses;
    } else if (event.label == "service.cache_evict") {
      ++evictions;
    } else if (event.label == "service.queue_wait") {
      queue_wait.record(event.a);
    }
  }
  if (by_status.empty() && hits + misses + evictions == 0) return;
  std::cout << "service\n";
  Table table({"status", "requests", "cached", "seconds"});
  for (const auto& [status, row] : by_status) {
    table.row(mpss::solve_status_name(static_cast<mpss::SolveStatus>(status)),
              row.requests, row.cached, Table::num(row.seconds, 6));
  }
  print_table(table, csv);
  std::cout << "service cache\n";
  Table cache({"hits", "misses", "evictions"});
  cache.row(hits, misses, evictions);
  print_table(cache, csv);
  latency_table("service queue wait (us)", queue_wait, csv);
}

void net_table(const std::vector<TraceEvent>& events, bool csv) {
  // The solve daemon (net/server.hpp) emits one "net.request" kCounter event
  // per decoded frame (a = payload bytes) and one "net.response" per written
  // response (a = payload bytes, b = solves in the response, value = seconds
  // from receipt to write), plus disconnect-cancellation and shutdown markers.
  std::size_t requests = 0;
  std::size_t responses = 0;
  std::size_t solves = 0;
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  double seconds = 0.0;
  std::size_t disconnect_cancels = 0;
  std::size_t shutdowns = 0;
  mpss::obs::HistogramData request_us;  // per-response receipt-to-write latency
  for (const TraceEvent& event : events) {
    if (event.kind != EventKind::kCounter) continue;
    if (event.label == "net.request") {
      ++requests;
      bytes_in += static_cast<double>(event.a);
    } else if (event.label == "net.response") {
      ++responses;
      bytes_out += static_cast<double>(event.a);
      solves += event.b;
      seconds += event.value;
      if (event.value > 0.0) {
        request_us.record(static_cast<std::uint64_t>(event.value * 1e6));
      }
    } else if (event.label == "net.disconnect_cancel") {
      disconnect_cancels += event.a;
    } else if (event.label == "net.shutdown_verb") {
      ++shutdowns;
    }
  }
  if (requests + responses + disconnect_cancels + shutdowns == 0) return;
  std::cout << "net\n";
  Table table({"requests", "responses", "solves", "bytes_in", "bytes_out",
               "seconds", "cancelled", "shutdowns"});
  table.row(requests, responses, solves, static_cast<std::size_t>(bytes_in),
            static_cast<std::size_t>(bytes_out), Table::num(seconds, 6),
            disconnect_cancels, shutdowns);
  print_table(table, csv);
  latency_table("net request latency (us)", request_us, csv);
}

void arrival_table(const std::vector<TraceEvent>& events, bool csv) {
  Table table({"arrival", "available", "plan_seconds"});
  for (const TraceEvent& event : events) {
    if (event.kind != EventKind::kArrival) continue;
    table.row(event.a, event.b, Table::num(event.value, 6));
  }
  if (table.row_count() == 0) return;
  std::cout << "arrivals\n";
  print_table(table, csv);
}

// ---- span profile (--report) and Chrome export (--chrome) ------------------

/// One completed span, reassembled from a kSpanBegin/kSpanEnd pair. Span ids
/// come from one well *per process*, so they are unique across threads within
/// a file but collide between files -- the Chrome merge namespaces them.
struct SpanRecord {
  std::string label;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;         // 0 = root (within its own file)
  std::uint64_t remote_parent = 0;  // span id of a PEER process (another file)
  std::uint64_t trace = 0;          // distributed trace id; 0 = untraced
  std::uint64_t thread = 0;         // dense obs::thread_index()
  std::size_t file = 0;             // input-file index (Chrome pid)
  double start_seconds = 0.0;       // steady-clock epoch (begin event timestamp)
  double duration_seconds = 0.0;    // kSpanEnd value
  bool closed = false;
};

/// Every span of every input file, file by file in begin order.
std::vector<SpanRecord> collect_spans(
    const std::vector<std::vector<TraceEvent>>& files) {
  std::vector<SpanRecord> spans;
  for (std::size_t file = 0; file < files.size(); ++file) {
    std::map<std::uint64_t, std::size_t> index;  // span id -> position
    for (const TraceEvent& event : files[file]) {
      if (event.kind == EventKind::kSpanBegin) {
        SpanRecord record;
        record.label = event.label;
        record.id = event.a;
        record.parent = event.b;
        record.remote_parent = event.remote_parent;
        record.trace = event.trace;
        record.thread = static_cast<std::uint64_t>(event.value);
        record.file = file;
        record.start_seconds = event.t_seconds;
        index[record.id] = spans.size();
        spans.push_back(std::move(record));
      } else if (event.kind == EventKind::kSpanEnd) {
        auto it = index.find(event.a);
        if (it == index.end()) continue;  // end without begin: truncated trace
        spans[it->second].duration_seconds = event.value;
        spans[it->second].closed = true;
      }
    }
  }
  // Unclosed spans (crash or truncated capture) are dropped: without an end
  // event there is no duration to attribute.
  std::erase_if(spans, [](const SpanRecord& s) { return !s.closed; });
  return spans;
}

void span_report(const std::vector<std::vector<TraceEvent>>& files, bool csv,
                 std::size_t top) {
  std::vector<SpanRecord> spans = collect_spans(files);
  if (spans.empty()) {
    std::cout << "no spans in trace (emit with obs::SpanScope)\n";
    return;
  }

  // Self time = inclusive duration minus direct children's inclusive
  // durations. Span ids collide between files, so the key is (file, id).
  std::map<std::pair<std::size_t, std::uint64_t>, double> children_seconds;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      children_seconds[{span.file, span.parent}] += span.duration_seconds;
    }
  }

  struct LabelRow {
    std::size_t count = 0;
    double total_seconds = 0.0;
    double self_seconds = 0.0;
    mpss::obs::HistogramData durations_us;  // per-call inclusive duration
  };
  std::map<std::string, LabelRow> by_label;
  double root_seconds = 0.0;  // trace wall time attributed to root spans
  double self_total = 0.0;
  for (const SpanRecord& span : spans) {
    LabelRow& row = by_label[span.label];
    ++row.count;
    row.total_seconds += span.duration_seconds;
    row.durations_us.record(
        static_cast<std::uint64_t>(span.duration_seconds * 1e6));
    double self = span.duration_seconds;
    auto it = children_seconds.find({span.file, span.id});
    if (it != children_seconds.end()) self -= it->second;
    // Clock skew between a parent's duration and its children's sum can push
    // self fractionally below zero; clamp so shares stay in [0, 100].
    self = std::max(self, 0.0);
    row.self_seconds += self;
    self_total += self;
    if (span.parent == 0) root_seconds += span.duration_seconds;
  }

  std::vector<std::pair<std::string, LabelRow>> rows(by_label.begin(), by_label.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_seconds > b.second.self_seconds;
  });
  if (rows.size() > top) rows.resize(top);

  std::cout << "span profile (" << spans.size() << " spans, "
            << Table::num(root_seconds, 6) << "s in root spans)\n";
  Table table({"label", "count", "total_s", "self_s", "self_pct", "p50_us",
               "p90_us", "p99_us"});
  for (const auto& [label, row] : rows) {
    double pct = self_total > 0.0 ? 100.0 * row.self_seconds / self_total : 0.0;
    mpss::obs::Percentiles latency = mpss::obs::percentiles(row.durations_us);
    table.row(label, row.count, Table::num(row.total_seconds, 6),
              Table::num(row.self_seconds, 6), Table::num(pct, 1), latency.p50,
              latency.p90, latency.p99);
  }
  print_table(table, csv);
}

/// Writes the Chrome trace-event format (the catapult JSON schema Perfetto and
/// chrome://tracing load): spans as "X" complete events, other timestamped
/// events as "i" instants. Timestamps are microseconds (full double precision)
/// relative to the earliest event across every file, so the viewer opens at t=0 and (on
/// Linux, where steady_clock is the machine-wide CLOCK_MONOTONIC) the files'
/// timelines align without negotiation.
///
/// Merge model: input file i becomes Chrome pid i, and its span ids are
/// namespaced as (i << 32) + id so per-process wells cannot collide -- file 0
/// keeps its raw ids, which keeps single-file output byte-identical to the
/// pre-merge format. A span with an rparent (a peer-process parent recorded by
/// the daemon) is re-parented under the span of *another* file with that raw
/// id and the same trace id; with three or more processes sharing a trace the
/// first match wins (the wire does not carry a process identity).
bool write_chrome_trace(const std::vector<std::vector<TraceEvent>>& files,
                        const std::string& path) {
  std::vector<SpanRecord> spans = collect_spans(files);
  auto gid = [](std::size_t file, std::uint64_t id) {
    return id == 0 ? std::uint64_t{0}
                   : (static_cast<std::uint64_t>(file) << 32) + id;
  };
  // (trace id, raw span id) -> the spans carrying that id, for cross-file
  // rparent resolution.
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::vector<std::pair<std::size_t, std::uint64_t>>>
      by_trace_id;  // value: (file, namespaced id)
  for (const SpanRecord& span : spans) {
    if (span.trace != 0) {
      by_trace_id[{span.trace, span.id}].emplace_back(span.file,
                                                      gid(span.file, span.id));
    }
  }

  double min_seconds = std::numeric_limits<double>::infinity();
  for (const SpanRecord& span : spans) {
    min_seconds = std::min(min_seconds, span.start_seconds);
  }
  for (const std::vector<TraceEvent>& events : files) {
    for (const TraceEvent& event : events) {
      if (event.t_seconds > 0.0) min_seconds = std::min(min_seconds, event.t_seconds);
    }
  }
  if (std::isinf(min_seconds)) min_seconds = 0.0;  // nothing timestamped

  std::ofstream out(path);
  if (!out) return false;
  // Each event is built as one json::Value and written as soon as it is
  // built: a long traced daemon run holds millions of spans, too many to hold
  // as one document, so only the envelope around them is written by hand.
  out << "{\"traceEvents\":[";
  std::string text;
  auto write_event = [&](const mpss::json::Value& event) {
    if (!text.empty()) out << ',';
    text.clear();
    mpss::json::serialize_to(event, text);
    out << text;
  };
  for (const SpanRecord& span : spans) {
    std::uint64_t parent = gid(span.file, span.parent);
    if (span.parent == 0 && span.remote_parent != 0 && span.trace != 0) {
      auto it = by_trace_id.find({span.trace, span.remote_parent});
      if (it != by_trace_id.end()) {
        for (const auto& [file, candidate] : it->second) {
          if (file != span.file) {
            parent = candidate;
            break;
          }
        }
      }
    }
    mpss::json::Value args;
    args.set("span", gid(span.file, span.id));
    args.set("parent", parent);
    if (span.trace != 0) args.set("trace", span.trace);
    mpss::json::Value event;
    event.set("name", span.label);
    event.set("ph", "X");
    event.set("ts", (span.start_seconds - min_seconds) * 1e6);
    event.set("dur", span.duration_seconds * 1e6);
    event.set("pid", span.file);
    event.set("tid", span.thread);
    event.set("args", std::move(args));
    write_event(event);
  }
  for (std::size_t file = 0; file < files.size(); ++file) {
    for (const TraceEvent& event : files[file]) {
      if (event.kind == EventKind::kSpanBegin || event.kind == EventKind::kSpanEnd) {
        continue;
      }
      if (event.t_seconds <= 0.0) continue;  // untimestamped build: spans only
      mpss::json::Value args;
      args.set("kind", mpss::obs::event_kind_name(event.kind));
      args.set("span", gid(file, event.span));
      mpss::json::Value instant;
      instant.set("name", event.label);
      instant.set("ph", "i");
      instant.set("s", "t");
      instant.set("ts", (event.t_seconds - min_seconds) * 1e6);
      instant.set("pid", file);
      instant.set("tid", 0);
      instant.set("args", std::move(args));
      write_event(instant);
    }
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

/// Replays the trace into a Prometheus text-format snapshot on stdout: the
/// offline twin of the daemon's live /metrics endpoint, for post-hoc analysis
/// of a captured JSONL file with the same tooling that reads the scrape.
void print_prometheus(const std::vector<TraceEvent>& events) {
  mpss::obs::Counters counters;
  mpss::obs::HistogramMap histograms;
  for (const TraceEvent& event : events) {
    if (event.kind == EventKind::kCounter) {
      counters.add(event.label);
      if (event.label == "service.queue_wait") {
        histograms["service.queue_wait_us"].record(event.a);
      } else if (event.label == "net.response" && event.value > 0.0) {
        histograms["net.request_us"].record(
            static_cast<std::uint64_t>(event.value * 1e6));
      }
    } else if (event.kind == EventKind::kSpanEnd) {
      histograms["span." + event.label + "_us"].record(
          static_cast<std::uint64_t>(event.value * 1e6));
    }
  }
  std::cout << mpss::obs::render_prometheus(counters, histograms);
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "usage: mpss_trace <trace.jsonl> [more.jsonl ...] [--csv] [--events] "
      "[--report] [--top=N] [--chrome=out.json] [--prom]\n";
  try {
    mpss::CliArgs args(argc, argv,
                       {"csv", "events", "help", "report", "top", "chrome", "prom"});
    if (args.get_bool("help", false)) {
      std::cout << usage;
      return kExitOk;
    }
    if (args.positional().empty()) {
      std::cerr << usage;
      return kExitUsage;
    }
    // One vector per input file: the Chrome merge and --report need the file
    // boundary (span-id namespaces); everything else reads the concatenation.
    std::vector<std::vector<TraceEvent>> files;
    for (const std::string& path : args.positional()) {
      std::ifstream in(path);
      if (!in) {
        std::cerr << "mpss_trace: cannot open '" << path
                  << "' (missing file or unreadable)\n";
        return kExitMissingFile;
      }
      try {
        files.push_back(mpss::obs::parse_trace_jsonl(in));
      } catch (const std::invalid_argument& error) {
        std::cerr << "mpss_trace: malformed JSONL in '" << path
                  << "': " << error.what() << "\n";
        return kExitMalformed;
      }
    }
    std::vector<TraceEvent> events;
    for (const std::vector<TraceEvent>& file : files) {
      events.insert(events.end(), file.begin(), file.end());
    }

    if (args.get_bool("events", false)) {
      for (const TraceEvent& event : events) {
        std::cout << mpss::obs::to_jsonl(event) << "\n";
      }
      return kExitOk;
    }

    std::string chrome_path = args.get("chrome", "");
    if (!chrome_path.empty()) {
      if (!write_chrome_trace(files, chrome_path)) {
        std::cerr << "mpss_trace: cannot write '" << chrome_path << "'\n";
        return kExitUsage;
      }
      std::cout << "wrote " << chrome_path << "\n";
      return kExitOk;
    }

    if (args.get_bool("prom", false)) {
      print_prometheus(events);
      return kExitOk;
    }

    const bool csv = args.get_bool("csv", false);
    if (args.get_bool("report", false)) {
      auto top = static_cast<std::size_t>(args.get_int("top", 20));
      span_report(files, csv, top == 0 ? 20 : top);
      return kExitOk;
    }

    std::cout << events.size() << " events\n\n";
    if (events.empty()) return kExitOk;
    kind_summary(events, csv);
    phase_tables(events, csv);
    warm_start_table(events, csv);
    memory_table(events, csv);
    simplex_table(events, csv);
    service_table(events, csv);
    net_table(events, csv);
    arrival_table(events, csv);
    return kExitOk;
  } catch (const std::exception& error) {
    std::cerr << "mpss_trace: " << error.what() << "\n" << usage;
    return kExitUsage;
  }
}
