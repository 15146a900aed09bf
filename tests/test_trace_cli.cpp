// End-to-end CLI tests for tools/mpss_trace: the documented exit-code scheme
// (0 ok / 1 usage / 2 missing file / 3 malformed JSONL), the --report span
// profile, and the --chrome export -- whose output is fully parsed by
// json::parse and checked against the Chrome trace-event schema (every event
// needs name/ph/ts/pid/tid).
//
// The binary path arrives via MPSS_TRACE_BIN (set by tests/CMakeLists.txt).

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mpss/core/optimal.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/util/json.hpp"
#include "mpss/workload/generators.hpp"

#ifndef MPSS_TRACE_BIN
#error "MPSS_TRACE_BIN must name the mpss_trace executable"
#endif

namespace mpss {
namespace {

namespace fs = std::filesystem;

/// Runs `mpss_trace <args>` and returns its exit code (-1 if it died oddly).
int run_tool(const std::string& args) {
  std::string command = std::string(MPSS_TRACE_BIN) + " " + args + " >/dev/null 2>&1";
  int status = std::system(command.c_str());
  if (status < 0) return -1;
#ifdef WEXITSTATUS
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#else
  return status;
#endif
}

/// Temp directory shared by the suite, removed at program exit.
fs::path temp_dir() {
  static fs::path dir = [] {
    fs::path d = fs::temp_directory_path() / "mpss_trace_cli_test";
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

/// A real trace: the exact engine over a generated instance, JSONL on disk.
fs::path traced_solve_path() {
  static fs::path path = [] {
    fs::path p = temp_dir() / "solve.jsonl";
    UniformWorkload config;
    config.jobs = 10;
    config.machines = 3;
    Instance instance = generate_uniform(config, 7);
    obs::JsonlSink sink(p.string());
    (void)optimal_schedule(instance, OptimalOptions{}, &sink);
    sink.flush();
    return p;
  }();
  return path;
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- the tests -------------------------------------------------------------

TEST(TraceCli, SummaryModeExitsZeroOnValidTrace) {
  EXPECT_EQ(run_tool(traced_solve_path().string()), 0);
  EXPECT_EQ(run_tool(traced_solve_path().string() + " --csv"), 0);
  EXPECT_EQ(run_tool(traced_solve_path().string() + " --events"), 0);
}

TEST(TraceCli, UsageErrorsExitOne) {
  EXPECT_EQ(run_tool(""), 1);                       // missing positional
  EXPECT_EQ(run_tool("--no-such-flag x.jsonl"), 1); // unknown flag
  EXPECT_EQ(run_tool("--help"), 0);                 // help is a success
  // Multiple positionals are the multi-file merge, not a usage error; these
  // two don't exist, so the missing-file exit code applies.
  EXPECT_EQ(run_tool("a.jsonl b.jsonl"), 2);
}

TEST(TraceCli, MissingFileExitsTwo) {
  EXPECT_EQ(run_tool((temp_dir() / "does_not_exist.jsonl").string()), 2);
}

TEST(TraceCli, MalformedJsonlExitsThree) {
  fs::path bad = temp_dir() / "bad.jsonl";
  std::ofstream(bad) << "this is not json\n";
  EXPECT_EQ(run_tool(bad.string()), 3);

  fs::path truncated = temp_dir() / "truncated.jsonl";
  std::ofstream(truncated) << R"({"seq":0,"kind":"counter","label":"x)" << "\n";
  EXPECT_EQ(run_tool(truncated.string()), 3);

  fs::path negative = temp_dir() / "negative.jsonl";
  std::ofstream(negative) << R"({"seq":0,"kind":"counter","label":"x","a":-1})"
                          << "\n";
  EXPECT_EQ(run_tool(negative.string()), 3);
}

TEST(TraceCli, ReportModeRunsAndMentionsTheRootSpan) {
  fs::path out = temp_dir() / "report.txt";
  std::string command = std::string(MPSS_TRACE_BIN) + " " +
                        traced_solve_path().string() + " --report > " +
                        out.string() + " 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0);
  std::string report = slurp(out);
  EXPECT_NE(report.find("span profile"), std::string::npos) << report;
  EXPECT_NE(report.find("optimal.solve"), std::string::npos) << report;
  EXPECT_NE(report.find("optimal.round"), std::string::npos) << report;
}

TEST(TraceCli, ChromeExportIsValidTraceEventJson) {
  fs::path out = temp_dir() / "chrome.json";
  ASSERT_EQ(run_tool(traced_solve_path().string() + " --chrome=" + out.string()), 0);

  json::Value root = json::parse(slurp(out));  // throws if not valid JSON
  ASSERT_TRUE(root.is_object());
  ASSERT_NE(root.find("traceEvents"), nullptr);
  ASSERT_TRUE(root.at("traceEvents").is_array());
  const json::Array& events = root.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  std::size_t complete = 0;
  for (const json::Value& event : events) {
    ASSERT_TRUE(event.is_object());
    // Chrome trace-event schema: every event carries name/ph/ts/pid/tid.
    for (const char* key : {"name", "ph", "ts", "pid", "tid"}) {
      ASSERT_NE(event.find(key), nullptr) << "missing " << key;
    }
    ASSERT_TRUE(event.at("name").is_string());
    ASSERT_TRUE(event.at("ph").is_string());
    ASSERT_TRUE(event.at("ts").is_number());
    const std::string& ph = event.at("ph").as_string();
    EXPECT_TRUE(ph == "X" || ph == "i") << ph;
    if (ph == "X") {
      ++complete;
      ASSERT_NE(event.find("dur"), nullptr);
      EXPECT_GE(event.at("dur").as_double(), 0.0);
    }
  }
  // The traced solve opened solve/phase/round spans: they must all be there.
  EXPECT_GE(complete, 3u);
}

TEST(TraceCli, ChromeExportToUnwritablePathFails) {
  EXPECT_NE(run_tool(traced_solve_path().string() +
                     " --chrome=/nonexistent-dir-xyzzy/out.json"),
            0);
}

// ---- multi-file merge (S47) ------------------------------------------------

/// Writes `events` to `name` under the temp dir as JSONL, returning the path.
fs::path write_trace(const std::string& name,
                     const std::vector<obs::TraceEvent>& events) {
  fs::path path = temp_dir() / name;
  std::ofstream out(path);
  for (const obs::TraceEvent& event : events) {
    out << obs::to_jsonl(event) << "\n";
  }
  return path;
}

obs::TraceEvent span_event(obs::EventKind kind, std::string label,
                           std::uint64_t id, std::uint64_t parent,
                           std::uint64_t seq, double t, std::uint64_t trace = 0,
                           std::uint64_t remote_parent = 0) {
  obs::TraceEvent event;
  event.kind = kind;
  event.label = std::move(label);
  event.a = id;
  event.b = parent;
  event.span = parent;
  event.value = kind == obs::EventKind::kSpanEnd ? 0.25 : 0.0;
  event.seq = seq;
  event.t_seconds = t;
  event.trace = trace;
  event.remote_parent = remote_parent;
  return event;
}

TEST(TraceCli, MergedChromeExportResolvesCrossProcessParents) {
  using obs::EventKind;
  constexpr std::uint64_t kTrace = 777;
  // Two synthetic process traces whose span ids DELIBERATELY collide: raw id
  // 1 is client.solve in one file and pool.task in the other. The merge must
  // keep them apart (per-file id namespaces) and still resolve the server's
  // remote parent (rparent=1) to the *client's* span 1, not its own.
  fs::path client = write_trace(
      "merge_client.jsonl",
      {span_event(EventKind::kSpanBegin, "client.solve", 1, 0, 0, 100.0, kTrace),
       span_event(EventKind::kSpanEnd, "client.solve", 1, 0, 1, 100.5, kTrace)});
  fs::path server = write_trace(
      "merge_server.jsonl",
      {span_event(EventKind::kSpanBegin, "pool.task", 1, 0, 0, 99.0),
       span_event(EventKind::kSpanBegin, "net.request", 2, 0, 1, 100.1, kTrace,
                  /*remote_parent=*/1),
       span_event(EventKind::kSpanBegin, "service.request", 3, 2, 2, 100.2,
                  kTrace),
       span_event(EventKind::kSpanEnd, "service.request", 3, 2, 3, 100.3,
                  kTrace),
       span_event(EventKind::kSpanEnd, "net.request", 2, 0, 4, 100.4, kTrace,
                  /*remote_parent=*/1),
       span_event(EventKind::kSpanEnd, "pool.task", 1, 0, 5, 101.0)});

  fs::path out = temp_dir() / "merged.json";
  ASSERT_EQ(run_tool(client.string() + " " + server.string() +
                     " --chrome=" + out.string()),
            0);

  json::Value root = json::parse(slurp(out));
  const json::Array& events = root.at("traceEvents").as_array();
  std::map<std::string, const json::Value*> by_name;
  for (const json::Value& event : events) {
    if (event.at("ph").as_string() == "X") {
      by_name[event.at("name").as_string()] = &event;
    }
  }
  ASSERT_EQ(by_name.size(), 4u);

  auto field = [](const json::Value* event, const char* key) {
    return event->at("args").at(key).as_double();
  };
  auto pid = [](const json::Value* event) { return event->at("pid").as_double(); };

  // File index is the Chrome pid; file 0's ids are untouched (the single-file
  // output stays byte-compatible), file 1's live in a disjoint namespace.
  EXPECT_EQ(pid(by_name.at("client.solve")), 0.0);
  EXPECT_EQ(pid(by_name.at("net.request")), 1.0);
  double client_gid = field(by_name.at("client.solve"), "span");
  EXPECT_EQ(client_gid, 1.0);
  double pool_gid = field(by_name.at("pool.task"), "span");
  EXPECT_NE(pool_gid, client_gid);  // the colliding raw id 1, kept apart

  // The wire hop: net.request's parent resolved to the client's span across
  // files, and the whole request chain carries the trace id.
  EXPECT_EQ(field(by_name.at("net.request"), "parent"), client_gid);
  EXPECT_EQ(field(by_name.at("service.request"), "parent"),
            field(by_name.at("net.request"), "span"));
  EXPECT_EQ(field(by_name.at("net.request"), "trace"), 777.0);
  EXPECT_EQ(field(by_name.at("client.solve"), "trace"), 777.0);
}

TEST(TraceCli, ChromeExportKeepsMicrosecondsTwelveSecondsIn) {
  using obs::EventKind;
  // A 4 us span 12.345678 s into the trace, inside [1.0 s, 13.34569 s).
  auto ending = [](obs::TraceEvent event, double seconds) {
    event.value = seconds;
    return event;
  };
  fs::path trace = write_trace(
      "precision.jsonl",
      {span_event(EventKind::kSpanBegin, "outer", 1, 0, 0, 1.0),
       span_event(EventKind::kSpanBegin, "inner", 2, 1, 1, 13.345678),
       ending(span_event(EventKind::kSpanEnd, "inner", 2, 1, 2, 13.345682),
              13.345682 - 13.345678),
       ending(span_event(EventKind::kSpanEnd, "outer", 1, 0, 3, 13.34569),
              13.34569 - 1.0)});
  fs::path out = temp_dir() / "precision.json";
  ASSERT_EQ(run_tool(trace.string() + " --chrome=" + out.string()), 0);

  const json::Array events = json::parse(slurp(out)).at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);  // outer, then inner
  auto at = [&](std::size_t i, const char* key) { return events[i].at(key).as_double(); };
  EXPECT_NEAR(at(1, "ts"), 12'345'678.0, 0.5);
  EXPECT_GE(at(1, "ts"), at(0, "ts"));
  EXPECT_LE(at(1, "ts") + at(1, "dur"), at(0, "ts") + at(0, "dur"));
}

TEST(TraceCli, ReportAcceptsMultipleFiles) {
  EXPECT_EQ(run_tool(traced_solve_path().string() + " " +
                     traced_solve_path().string() + " --report"),
            0);
}

TEST(TraceCli, PromModeRendersExpositionText) {
  fs::path out = temp_dir() / "prom.txt";
  std::string command = std::string(MPSS_TRACE_BIN) + " " +
                        traced_solve_path().string() + " --prom > " +
                        out.string() + " 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0);
  std::string text = slurp(out);
  EXPECT_NE(text.find("# TYPE mpss_"), std::string::npos) << text;
  EXPECT_NE(text.find("_total "), std::string::npos) << text;
  // The traced solve closed spans, so the offline rebuild has span duration
  // histograms too.
  EXPECT_NE(text.find("mpss_span_optimal_solve_us"), std::string::npos) << text;
}

}  // namespace
}  // namespace mpss
