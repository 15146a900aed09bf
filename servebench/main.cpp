// servebench: the serving benchmark of the mpss solve daemon.
//
//   servebench --workload exact_cold|hit_wire|mixed_open --seed N --seconds S
//              --trace 0|1 [--trace-dir DIR] [--probe-only]
//
// --trace 0 measures the end-to-end metrics (latency_p50_ms, latency_p99_ms,
// throughput_rps, setup_s) in one untraced pass. --trace 1 prints the
// per-layer metrics: an untraced pass of S/2 seconds and the layer probe give
// the numbers; then a traced lap of the probe and a traced pass of S/2
// seconds, on a fresh daemon, record spans into an obs::RingSink that is
// written to DIR as JSONL (readable by mpss_trace --report and --chrome). --probe-only prints the
// request-sequence digest and the engine counters of the probe sample, with no
// daemon and no timing; the determinism test compares two such runs.
//
// Every run prints a provenance line first; the last line of stdout is the
// result record {"correct", "attempted", "failed", "metrics"}. Exit codes:
// 0 measured, 2 usage, 3 refused (not a Release build), 1 other errors.

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "mpss/obs/registry.hpp"
#include "mpss/obs/ring_sink.hpp"
#include "mpss/obs/trace.hpp"
#include "servebench.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE ""
#endif
#ifndef SERVEBENCH_COMPILER
#define SERVEBENCH_COMPILER "unknown"
#endif
#ifndef SERVEBENCH_CXX_FLAGS
#define SERVEBENCH_CXX_FLAGS ""
#endif

namespace servebench {
namespace {

struct Args {
  Workload workload = Workload::kHitWire;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir = ".";
  bool probe_only = false;
};

/// Accepts "--name value" and "--name=value".
std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string name = argv[i];
    std::string value;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (name != "--probe-only") {
      if (i + 1 >= argc) return std::nullopt;
      value = argv[++i];
    }
    try {
      if (name == "--workload") {
        std::optional<Workload> workload = workload_from_name(value);
        if (!workload) return std::nullopt;
        args.workload = *workload;
        have_workload = true;
      } else if (name == "--seed") {
        args.seed = std::stoull(value);
      } else if (name == "--seconds") {
        args.seconds = std::stod(value);
        if (!(args.seconds > 0.0)) return std::nullopt;
      } else if (name == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        args.trace = value == "1";
      } else if (name == "--trace-dir") {
        args.trace_dir = value;
      } else if (name == "--probe-only") {
        args.probe_only = true;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return args;
}

/// Shortest round-trip decimal form of a double (every digit measured).
std::string number(double value) {
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  return ec == std::errc{} ? std::string(buffer, end) : "0";
}

std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

/// Layer probe sample: the first requests of the workload's sequence.
std::size_t probe_size(Workload workload) {
  switch (workload) {
    case Workload::kExactCold: return 16;
    case Workload::kHitWire: return 8;
    case Workload::kMixedOpen: return 40;
  }
  return 8;
}

/// Per-layer metric units; also the set and order of names printed.
const std::vector<std::pair<std::string, std::string>>& per_layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"net.encode_request_us", "us"},      {"net.decode_request_us", "us"},
      {"net.encode_results_us", "us"},      {"net.decode_response_us", "us"},
      {"net.request_bytes", "bytes"},       {"net.response_bytes", "bytes"},
      {"net.unattributed_us", "us"},        {"net.retries", "count"},
      {"net.timeouts", "count"},            {"core.instance_to_json_us", "us"},
      {"core.instance_from_json_us", "us"}, {"service.fingerprint_us", "us"},
      {"service.hit_us", "us"},             {"service.queue_wait_p50_us", "us"},
      {"service.queue_wait_p99_us", "us"},  {"service.cache_hit_ratio", "ratio"},
      {"service.cache_evictions", "count"}, {"service.deadline_exceeded", "count"},
      {"engine.exact_ms", "ms"},            {"engine.fast_ms", "ms"},
      {"engine.oa_ms", "ms"},               {"engine.phases", "count"},
      {"engine.flow_computations", "count"}, {"engine.flow_bfs_rounds", "count"},
      {"engine.augmenting_paths", "count"}, {"engine.candidate_removals", "count"},
      {"engine.oa_replans", "count"},       {"flow.warm_starts", "count"},
      {"flow.resume_bfs", "count"},         {"flow.retracted_units", "count"},
      {"bigint.promotions", "count"},       {"bigint.small_hits", "count"},
      {"rational.norm_small", "count"},     {"mem.fallback_allocs", "count"},
      {"mem.arena_bytes", "bytes"},         {"obs.trace_overhead_frac", "ratio"},
      {"loadgen.lag_p99_ms", "ms"},
  };
  return units;
}

/// The engine counters that must repeat exactly for one seed.
const std::vector<std::string>& deterministic_counts() {
  static const std::vector<std::string> names = {
      "engine.phases",          "engine.flow_computations", "engine.flow_bfs_rounds",
      "engine.augmenting_paths", "engine.candidate_removals", "engine.oa_replans",
      "flow.warm_starts",       "flow.resume_bfs",          "flow.retracted_units",
      "bigint.promotions",      "bigint.small_hits",        "rational.norm_small"};
  return names;
}

bool is_release() {
#ifdef NDEBUG
  return std::string_view(SERVEBENCH_BUILD_TYPE) == "Release";
#else
  return false;
#endif
}

std::size_t online_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : std::thread::hardware_concurrency();
}

/// Host and build record printed before every result. A configuration whose
/// daemon workers plus client connections exceed the CPU count measures
/// contention, not the code, and is labelled uninformative.
void print_provenance(const Args& args) {
  const std::size_t nproc = online_cpus();
  const std::size_t threads = kDaemonWorkers + connections_for(args.workload);
  const bool informative = threads <= nproc;
  std::cout << "{\"provenance\":{\"workload\":" << quoted(workload_name(args.workload))
            << ",\"seed\":" << args.seed << ",\"seconds\":" << number(args.seconds)
            << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"nproc\":" << nproc
            << ",\"compiler\":" << quoted(SERVEBENCH_COMPILER)
            << ",\"project_build_type\":" << quoted(SERVEBENCH_BUILD_TYPE)
            << ",\"library_build_type\":" << quoted(SERVEBENCH_BUILD_TYPE)
            << ",\"cxx_flags\":" << quoted(SERVEBENCH_CXX_FLAGS)
            << ",\"release\":" << (is_release() ? "true" : "false")
            << ",\"daemon_workers\":" << kDaemonWorkers
            << ",\"connections\":" << connections_for(args.workload)
            << ",\"informative\":" << (informative ? "true" : "false") << "}}\n";
  if (!informative) {
    std::cerr << "servebench: UNINFORMATIVE: " << threads
              << " daemon workers + connections exceed nproc = " << nproc << "\n";
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<std::tuple<std::string, double, std::string>>& metrics) {
  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false") << ",\"attempted\":" << attempted
      << ",\"failed\":" << failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    out << (i ? "," : "") << quoted(name) << ":{\"value\":"
        << number(std::isfinite(value) ? value : 0.0) << ",\"unit\":" << quoted(unit) << "}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// One human-readable line per pass, so a run's sample counts are on record.
Summary print_pass(const char* label, const PassResult& pass) {
  const Summary summary = summarize(pass);
  const std::size_t beyond_p99 = summary.samples_beyond_p99;
  std::cout << "# " << label << ": attempted=" << pass.attempted
            << " succeeded=" << pass.attempted - pass.failed << " failed=" << pass.failed
            << " check_failures=" << pass.check_failures << " windows=" << summary.windows
            << " p50_ms=" << number(summary.p50_ms) << " p99_ms=" << number(summary.p99_ms)
            << " throughput_rps=" << number(summary.throughput_rps)
            << " samples_beyond_p99_per_window=" << beyond_p99
            << " cache_hits=" << pass.cache_hits << " cache_misses=" << pass.cache_misses
            << " evictions=" << pass.cache_evictions << "\n";
  for (const auto& [name, latencies] : pass.latencies_by_class) {
    std::cout << "#   " << name << ": n=" << latencies.size()
              << " p50_ms=" << number(quantile(latencies, 0.5))
              << " p99_ms=" << number(quantile(latencies, 0.99)) << "\n";
  }
  if (beyond_p99 < 10) {
    std::cerr << "servebench: p99 of " << label << " has only " << beyond_p99
              << " samples beyond it (fewer than 10)\n";
  }
  for (const std::string& error : pass.first_errors) {
    std::cerr << "servebench: " << label << ": " << error << "\n";
  }
  return summary;
}

/// Sets up `reps` times (each: start a daemon, generate inputs, compute
/// references, warm) and keeps the last; returns the median set-up time.
double timed_setup(const Args& args, double seconds, int reps, Setup& kept) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    Setup setup = set_up(args.workload, args.seed, seconds);
    times.push_back(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
    if (r + 1 == reps) {
      kept = std::move(setup);
    } else {
      setup.server->shutdown();
    }
  }
  return quantile(times, 0.5);
}

int run_end_to_end(const Args& args) {
  Setup setup;
  const double setup_s = timed_setup(args, args.seconds, 5, setup);
  const PassResult pass = run_pass(args.workload, args.seed, args.seconds, setup);
  const Summary summary = print_pass(workload_name(args.workload), pass);
  print_result(pass.check_failures == 0, pass.attempted, pass.failed,
               {{"latency_p50_ms", summary.p50_ms, "ms"},
                {"latency_p99_ms", summary.p99_ms, "ms"},
                {"throughput_rps", summary.throughput_rps, "1/s"},
                {"setup_s", setup_s, "s"}});
  return 0;
}

/// Keeps the span and counter events of a traced run in memory and writes them
/// out at the end. Memory stays bounded: past kMaxEvents no new span opens
/// (or counter) is kept, only the closes of spans already kept, so the file
/// always holds whole spans. Engine-internal events (flow rounds, arrivals)
/// are not kept; the spans around them are.
class TraceCollector {
 public:
  explicit TraceCollector(mpss::obs::RingSink& ring)
      : ring_(ring), drainer_([this](std::stop_token stop) {
          while (!stop.stop_requested()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            keep(ring_.drain());
          }
        }) {}

  /// Stops the drainer, takes what is left, and writes the JSONL file.
  std::size_t write(const std::string& path) {
    drainer_.request_stop();
    drainer_.join();
    keep(ring_.drain());
    mpss::obs::JsonlSink sink(path);
    for (const mpss::obs::TraceEvent& event : kept_) sink.record(event);
    sink.flush();
    return kept_.size();
  }

  [[nodiscard]] std::size_t discarded() const { return discarded_; }

 private:
  static constexpr std::size_t kMaxEvents = 120'000;

  void keep(std::vector<mpss::obs::TraceEvent> events) {
    using mpss::obs::EventKind;
    for (mpss::obs::TraceEvent& event : events) {
      bool wanted = false;
      if (event.kind == EventKind::kSpanEnd) {
        wanted = open_.erase(event.a) != 0;
      } else if (event.kind == EventKind::kSpanBegin || event.kind == EventKind::kCounter) {
        wanted = kept_.size() < kMaxEvents;
        if (wanted && event.kind == EventKind::kSpanBegin) open_.insert(event.a);
      }
      if (wanted) {
        kept_.push_back(std::move(event));
      } else {
        ++discarded_;
      }
    }
  }

  mpss::obs::RingSink& ring_;
  std::vector<mpss::obs::TraceEvent> kept_;
  std::unordered_set<std::uint64_t> open_;  // ids of kept spans not yet closed
  std::size_t discarded_ = 0;
  std::jthread drainer_;  // declared last: it uses the members above
};

int run_traced(const Args& args) {
  const double half = args.seconds / 2.0;
  const std::vector<RequestSpec> sample =
      request_prefix(args.workload, args.seed, probe_size(args.workload));

  // Untraced pass and probe: the per-layer times.
  Setup plain_setup;
  (void)timed_setup(args, half, 1, plain_setup);
  const PassResult plain = run_pass(args.workload, args.seed, half, plain_setup);
  plain_setup = Setup{};
  const Summary plain_summary = print_pass("untraced", plain);
  const Probe probe = probe_layers(sample, 25, /*spans=*/false);
  Metrics metrics = probe.metrics;

  // One traced lap of the probe (the benchmark's own layer spans), then the
  // traced pass on a fresh daemon with an empty cache, as the untraced one had.
  mpss::obs::RingSink ring(1u << 16);
  PassResult traced;
  std::size_t events = 0;
  std::size_t discarded = 0;
  const std::string trace_path =
      (std::filesystem::path(args.trace_dir) /
       (std::string(workload_name(args.workload)) + "-seed" + std::to_string(args.seed) +
        ".jsonl"))
          .string();
  {
    TraceCollector collector(ring);
    {
      // Detached on every exit from this scope, so nothing records into the
      // ring after it is gone.
      struct Attachment {
        explicit Attachment(mpss::obs::TraceSink* sink) {
          mpss::obs::Registry::global().attach_sink(sink);
        }
        ~Attachment() { mpss::obs::Registry::global().attach_sink(nullptr); }
      } attachment(&ring);
      (void)probe_layers(sample, 1, /*spans=*/true);
      Setup traced_setup;
      (void)timed_setup(args, half, 1, traced_setup);
      traced = run_pass(args.workload, args.seed, half, traced_setup);
    }
    std::filesystem::create_directories(args.trace_dir);
    events = collector.write(trace_path);
    discarded = collector.discarded();
  }
  const Summary traced_summary = print_pass("traced", traced);
  std::cout << "# trace: " << events << " events written to " << trace_path << " ("
            << discarded << " engine-internal or over-cap events not kept, "
            << ring.dropped() << " lost to full rings)\n";

  const double plain_p50_ms = plain_summary.p50_ms;
  metrics["obs.trace_overhead_frac"] = traced_summary.p50_ms / plain_p50_ms - 1.0;
  metrics["service.queue_wait_p50_us"] = static_cast<double>(plain.queue_wait_p50_us);
  metrics["service.queue_wait_p99_us"] = static_cast<double>(plain.queue_wait_p99_us);
  const std::uint64_t lookups = plain.cache_hits + plain.cache_misses;
  metrics["service.cache_hit_ratio"] =
      lookups == 0 ? 0.0 : static_cast<double>(plain.cache_hits) / static_cast<double>(lookups);
  metrics["service.cache_evictions"] = static_cast<double>(plain.cache_evictions);
  metrics["service.deadline_exceeded"] =
      static_cast<double>(plain.deadline_exceeded + traced.deadline_exceeded);
  metrics["net.retries"] = static_cast<double>(plain.retries + traced.retries);
  metrics["net.timeouts"] = static_cast<double>(plain.timeouts + traced.timeouts);
  metrics["loadgen.lag_p99_ms"] = quantile(plain.lag_ms, 0.99);

  // Attribution of the untraced p50 to the layers a request crosses, in
  // order. It is exact on hit_wire only: there the engine does not run (the
  // service hit covers the fingerprint, the LRU and the worker handoff) and
  // the residual is the p50 minus the layer medians. Where the engine runs,
  // its in-process time is measured apart from the pass, and this host's
  // speed drifts by more than the whole wire cost between the two, so the
  // residual is reported as 0 and the table shows the engine row for scale.
  const bool hits = args.workload == Workload::kHitWire;
  const std::vector<std::pair<std::string, double>> path = {
      {"net.encode_request_us (client)", metrics["net.encode_request_us"]},
      {"net.decode_request_us (daemon reader)", metrics["net.decode_request_us"]},
      {"service.hit_us (fingerprint + LRU + handoff)", metrics["service.hit_us"]},
      {"net.encode_results_us (daemon writer)", metrics["net.encode_results_us"]},
      {"net.decode_response_us (client)", metrics["net.decode_response_us"]},
  };
  double layers_us = 0.0;
  for (const auto& [name, us] : path) layers_us += us;
  metrics["net.unattributed_us"] = hits ? 1000.0 * plain_p50_ms - layers_us : 0.0;

  std::printf("# attribution of latency_p50_ms on %s (untraced pass)\n", workload_name(args.workload));
  std::printf("#   %-50s %12s\n", "layer median", "us");
  for (const auto& [name, us] : path) std::printf("#   %-50s %12.1f\n", name.c_str(), us);
  std::printf("#     of which core.instance_to_json_us %21.1f\n", metrics["core.instance_to_json_us"]);
  std::printf("#     of which core.instance_from_json_us %19.1f\n", metrics["core.instance_from_json_us"]);
  std::printf("#     of which service.fingerprint_us %22.1f\n", metrics["service.fingerprint_us"]);
  if (hits) {
    std::printf("#   %-50s %12.1f\n", "net.unattributed_us (syscalls, framing, handoffs)",
                metrics["net.unattributed_us"]);
    std::printf("#   %-50s %12.1f\n", "sum", layers_us + metrics["net.unattributed_us"]);
  } else {
    std::printf("#   %-50s %12.1f\n", "engine solve (in process, sample median)",
                quantile(probe.solve_us, 0.5));
  }
  std::printf("#   %-50s %12.1f\n", "latency_p50_ms x 1000", 1000.0 * plain_p50_ms);

  std::vector<std::tuple<std::string, double, std::string>> out;
  for (const auto& [name, unit] : per_layer_units()) out.emplace_back(name, metrics[name], unit);
  print_result(plain.check_failures == 0 && traced.check_failures == 0,
               plain.attempted + traced.attempted, plain.failed + traced.failed, out);
  return 0;
}

int run_probe_only(const Args& args) {
  const std::vector<RequestSpec> prefix = request_prefix(args.workload, args.seed, 256);
  const Metrics metrics =
      probe_layers(request_prefix(args.workload, args.seed, probe_size(args.workload)), 1, false)
          .metrics;
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(sequence_digest(prefix)));
  std::cout << "{\"workload\":" << quoted(workload_name(args.workload))
            << ",\"seed\":" << args.seed << ",\"requests\":" << prefix.size()
            << ",\"digest\":\"" << digest << "\",\"counts\":{";
  const std::vector<std::string>& names = deterministic_counts();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cout << (i ? "," : "") << quoted(names[i]) << ":" << number(metrics.at(names[i]));
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: servebench --workload exact_cold|hit_wire|mixed_open --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR] [--probe-only]\n";
    return 2;
  }
  print_provenance(*args);
  if (!is_release() && !args->probe_only) {
    // --probe-only times nothing, so its counts are valid in any build.
    std::cerr << "servebench: REFUSED: not a Release build (build type '" SERVEBENCH_BUILD_TYPE
                 "'); its timings would say nothing about the code\n";
    return 3;
  }
  try {
    if (args->probe_only) return run_probe_only(*args);
    return args->trace ? run_traced(*args) : run_end_to_end(*args);
  } catch (const std::exception& error) {
    std::cerr << "servebench: " << error.what() << "\n";
    return 1;
  }
}
