// mpss_served: the solve daemon and its command-line client (S45).
//
// Daemon mode (the default) binds a loopback TCP socket, prints the bound
// address as "listening on <host>:<port>" (flushed, so scripts can scrape an
// ephemeral port), and serves the framed JSON protocol of net/protocol.hpp
// until a client sends the "shutdown" verb or the process receives SIGINT/
// SIGTERM:
//
//   mpss_served [--host=127.0.0.1] [--port=0] [--threads=N] [--queue=N]
//               [--cache=N] [--trace=out.jsonl] [--metrics-port=N]
//               [--slow-ms=N] [--idle-timeout-ms=N] [--frame-timeout-ms=N]
//               [--max-inflight=N]
//
// --metrics-port starts the Prometheus scrape endpoint (GET /metrics, S47) on
// the same host; the bound port is printed as "metrics on <host>:<port>".
// --slow-ms turns on the structured completion log on stderr: one JSON line
// per request whose wall time meets the threshold (0 logs every request).
// --idle-timeout-ms / --frame-timeout-ms set the per-connection read deadlines
// (S48): idle bounds the wait for a new frame, frame bounds a started frame's
// arrival (the slowloris cutoff). --max-inflight caps pipelined requests per
// connection before reads stall.
//
// Client mode (--connect) drives a running daemon over the same protocol --
// the shell-scriptable face of net::SolveClient, and what the CI integration
// leg uses:
//
//   mpss_served --connect=HOST:PORT --health
//   mpss_served --connect=HOST:PORT --stats
//   mpss_served --connect=HOST:PORT --metrics
//   mpss_served --connect=HOST:PORT --shutdown
//   mpss_served --connect=HOST:PORT [--engine=NAME] [--deadline-ms=N]
//               [--priority=N] [--trace=out.jsonl] [--connect-timeout-ms=N]
//               [--io-timeout-ms=N] [--budget-ms=N] [--retries=N]
//               instance.json [more.json ...]
//
// The client-side deadlines and retries (S48) apply to every client-mode verb:
// --connect-timeout-ms bounds the TCP connect, --io-timeout-ms each
// send/recv, --budget-ms the whole round trip (retries and backoff included),
// and --retries sets the attempt cap for idempotent verbs (shutdown never
// retries).
//
// --metrics prints the daemon's Prometheus snapshot (the "metrics" verb).
// --trace in client mode records the client-side trace -- each solve runs in a
// "client.solve" span whose trace context travels to the daemon, so the two
// JSONL files merge into one timeline via `mpss_trace --chrome client.jsonl
// server.jsonl`.
//
// Solve mode prints one line per instance: "<path> <status> <energy>
// [<detail>]". Exit codes: 0 on success (every solve returned status ok),
// 1 on usage errors, 2 when the daemon cannot be reached or the transport
// fails, 3 when any solve came back with a non-ok status.

#include <atomic>
#include <chrono>
#include <csignal>
#include <exception>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mpss/core/instance_json.hpp"
#include "mpss/net/client.hpp"
#include "mpss/net/metrics_http.hpp"
#include "mpss/net/server.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/solve.hpp"
#include "mpss/util/cli.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitTransport = 2;
constexpr int kExitSolveFailed = 3;

const char* kUsage =
    "usage: mpss_served [--host=A] [--port=N] [--threads=N] [--queue=N]\n"
    "                   [--cache=N] [--trace=out.jsonl] [--metrics-port=N]\n"
    "                   [--slow-ms=N] [--idle-timeout-ms=N]\n"
    "                   [--frame-timeout-ms=N] [--max-inflight=N]\n"
    "       mpss_served --connect=HOST:PORT "
    "(--health|--stats|--metrics|--shutdown)\n"
    "       mpss_served --connect=HOST:PORT [--engine=NAME] [--deadline-ms=N]\n"
    "                   [--priority=N] [--trace=out.jsonl]\n"
    "                   [--connect-timeout-ms=N] [--io-timeout-ms=N]\n"
    "                   [--budget-ms=N] [--retries=N] instance.json "
    "[more.json ...]\n";

// Signal handling: the handler only flips a flag; a watcher thread turns it
// into the graceful shutdown (signal context cannot touch mutexes).
std::atomic<bool> g_signalled{false};

void on_signal(int) { g_signalled.store(true, std::memory_order_relaxed); }

int run_daemon(const mpss::CliArgs& args) {
  mpss::net::SolveServerOptions options;
  options.host = args.get("host", "127.0.0.1");
  options.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  options.service.threads = static_cast<std::size_t>(args.get_int("threads", 0));
  options.service.queue_capacity =
      static_cast<std::size_t>(args.get_int("queue", 256));
  options.service.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", 128));
  options.slow_ms = args.get_int("slow-ms", -1);
  options.idle_timeout_ms = args.get_int("idle-timeout-ms", 0);
  options.frame_timeout_ms = args.get_int("frame-timeout-ms", 30'000);
  options.max_inflight_per_connection =
      static_cast<std::size_t>(args.get_int("max-inflight", 64));

  std::optional<mpss::obs::JsonlSink> trace_sink;
  std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) {
    try {
      trace_sink.emplace(trace_path);
    } catch (const std::invalid_argument&) {
      std::cerr << "mpss_served: cannot open trace file '" << trace_path << "'\n";
      return kExitUsage;
    }
    mpss::obs::Registry::global().attach_sink(&*trace_sink);
  }

  mpss::net::SolveServer server(std::move(options));
  std::cout << "listening on " << args.get("host", "127.0.0.1") << ":"
            << server.port() << std::endl;  // flushed: scripts scrape this line

  std::optional<mpss::net::MetricsHttpServer> metrics;
  std::int64_t metrics_port = args.get_int("metrics-port", -1);
  if (metrics_port >= 0) {
    metrics.emplace(args.get("host", "127.0.0.1"),
                    static_cast<std::uint16_t>(metrics_port));
    std::cout << "metrics on " << args.get("host", "127.0.0.1") << ":"
              << metrics->port() << std::endl;  // also scraped by scripts
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::thread watcher([&server] {
    while (!g_signalled.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    server.shutdown();
  });
  server.wait();  // returns on SIGINT/SIGTERM or a client's "shutdown" verb
  g_signalled.store(true, std::memory_order_relaxed);
  watcher.join();
  if (!trace_path.empty()) {
    mpss::obs::Registry::global().attach_sink(nullptr);
  }
  std::cout << "drained\n";
  return kExitOk;
}

int run_client(const mpss::CliArgs& args, const std::string& endpoint) {
  auto colon = endpoint.rfind(':');
  if (colon == std::string::npos) {
    std::cerr << "mpss_served: --connect expects HOST:PORT\n" << kUsage;
    return kExitUsage;
  }
  std::string host = endpoint.substr(0, colon);
  int port = 0;
  try {
    port = std::stoi(endpoint.substr(colon + 1));
  } catch (const std::exception&) {
    port = -1;
  }
  if (port <= 0 || port > 65535) {
    std::cerr << "mpss_served: bad port in '" << endpoint << "'\n";
    return kExitUsage;
  }

  // Client-side tracing: with a sink attached, every round trip below runs in
  // a client.solve span whose context travels to the daemon (client.hpp).
  std::optional<mpss::obs::JsonlSink> trace_sink;
  std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) {
    try {
      trace_sink.emplace(trace_path);
    } catch (const std::invalid_argument&) {
      std::cerr << "mpss_served: cannot open trace file '" << trace_path << "'\n";
      return kExitUsage;
    }
    mpss::obs::Registry::global().attach_sink(&*trace_sink);
  }
  struct SinkDetach {
    bool armed;
    ~SinkDetach() {
      if (armed) mpss::obs::Registry::global().attach_sink(nullptr);
    }
  } detach{!trace_path.empty()};

  try {
    mpss::net::SolveClientOptions client_options;
    client_options.connect_timeout_ms = args.get_int("connect-timeout-ms", 0);
    client_options.io_timeout_ms = args.get_int("io-timeout-ms", 0);
    client_options.request_budget_ms = args.get_int("budget-ms", 0);
    client_options.retry.max_attempts =
        static_cast<int>(args.get_int("retries", 3));
    mpss::net::SolveClient client(host, static_cast<std::uint16_t>(port),
                                  client_options);
    if (args.get_bool("health", false)) {
      std::cout << mpss::json::serialize(client.health()) << "\n";
      return kExitOk;
    }
    if (args.get_bool("stats", false)) {
      std::cout << mpss::json::serialize(client.stats()) << "\n";
      return kExitOk;
    }
    if (args.get_bool("metrics", false)) {
      std::cout << client.metrics();
      return kExitOk;
    }
    if (args.get_bool("shutdown", false)) {
      std::cout << mpss::json::serialize(client.request_shutdown()) << "\n";
      return kExitOk;
    }

    if (args.positional().empty()) {
      std::cerr << "mpss_served: no instance files given\n" << kUsage;
      return kExitUsage;
    }
    mpss::SolveOptions options;
    std::string engine = args.get("engine", "exact");
    if (auto parsed = mpss::engine_from_name(engine)) {
      options.engine = *parsed;
    } else {
      std::cerr << "mpss_served: unknown engine '" << engine << "'\n";
      return kExitUsage;
    }
    auto priority = static_cast<int>(args.get_int("priority", 0));
    std::int64_t deadline_ms = args.get_int("deadline-ms", 0);

    bool all_ok = true;
    for (const std::string& path : args.positional()) {
      mpss::Instance instance = mpss::load_instance(path);
      mpss::SolveResult result =
          client.solve(instance, options, priority, deadline_ms);
      std::cout << path << " " << mpss::solve_status_name(result.status) << " "
                << result.energy;
      if (!result.error_detail.empty()) std::cout << " " << result.error_detail;
      std::cout << "\n";
      all_ok = all_ok && result.ok();
    }
    return all_ok ? kExitOk : kExitSolveFailed;
  } catch (const mpss::net::FrameError& error) {
    std::cerr << "mpss_served: transport error: " << error.what() << "\n";
    return kExitTransport;
  } catch (const mpss::net::ProtocolError& error) {
    std::cerr << "mpss_served: daemon error ("
              << mpss::net::error_code_name(error.code()) << "): " << error.what()
              << "\n";
    return kExitTransport;
  } catch (const std::exception& error) {
    std::cerr << "mpss_served: " << error.what() << "\n";
    return kExitTransport;
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    mpss::CliArgs args(argc, argv,
                       {"host", "port", "threads", "queue", "cache", "trace",
                        "connect", "health", "stats", "metrics", "shutdown",
                        "engine", "deadline-ms", "priority", "metrics-port",
                        "slow-ms", "idle-timeout-ms", "frame-timeout-ms",
                        "max-inflight", "connect-timeout-ms", "io-timeout-ms",
                        "budget-ms", "retries", "help"});
    if (args.get_bool("help", false)) {
      std::cout << kUsage;
      return kExitOk;
    }
    std::string endpoint = args.get("connect", "");
    if (!endpoint.empty()) return run_client(args, endpoint);
    if (!args.positional().empty()) {
      std::cerr << "mpss_served: daemon mode takes no positional arguments\n"
                << kUsage;
      return kExitUsage;
    }
    return run_daemon(args);
  } catch (const std::exception& error) {
    std::cerr << "mpss_served: " << error.what() << "\n" << kUsage;
    return kExitUsage;
  }
}
