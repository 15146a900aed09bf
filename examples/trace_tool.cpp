// trace_tool: a small command-line utility around the library -- generate
// workload traces, inspect them, schedule them with any algorithm, and render or
// archive the result. The kind of tool a downstream user scripts against.
//
// Subcommands (first positional argument):
//   gen   --family=uniform|bursty|laminar|agreeable|periodic --out=trace.json
//         [--jobs=12] [--machines=4] [--seed=1]
//   info  <trace.json>
//   run   <trace.json> --algo=opt|fast|oa|avr|lp|greedy [--alpha=3]
//         [--gantt] [--save=result.json] [--trace=events.jsonl]
//
// Instances are canonical instance JSON (core/instance_json.hpp), the format
// of data/corpus and of the wire protocol. --save writes the solve's result
// as the JSON object a daemon reply carries (net/protocol.hpp). Everything
// except greedy goes through the mpss::solve() facade; --trace attaches a
// JSONL sink whose output tools/mpss_trace summarizes.
//
// Examples:
//   trace_tool gen --family=bursty --jobs=16 --machines=4 --out=/tmp/t.json
//   trace_tool info /tmp/t.json
//   trace_tool run /tmp/t.json --algo=opt --gantt --trace=/tmp/t.jsonl

#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "mpss/mpss.hpp"

namespace {

using namespace mpss;

int cmd_gen(const CliArgs& args) {
  std::string family = args.get("family", "uniform");
  auto jobs = static_cast<std::size_t>(args.get_int("jobs", 12));
  auto machines = static_cast<std::size_t>(args.get_int("machines", 4));
  auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  std::string out = args.get("out", "trace.json");

  Instance instance = [&] {
    if (family == "uniform") {
      return generate_uniform({.jobs = jobs, .machines = machines,
                               .horizon = 3 * static_cast<std::int64_t>(jobs),
                               .max_window = 10, .max_work = 8}, seed);
    }
    if (family == "bursty") {
      return generate_bursty({.bursts = std::max<std::size_t>(jobs / 4, 1),
                              .jobs_per_burst = 4, .machines = machines,
                              .horizon = 3 * static_cast<std::int64_t>(jobs),
                              .burst_window = 6, .max_work = 8}, seed);
    }
    if (family == "laminar") {
      return generate_laminar({.jobs = jobs, .machines = machines, .depth = 4,
                               .max_work = 8}, seed);
    }
    if (family == "agreeable") {
      return generate_agreeable({.jobs = jobs, .machines = machines,
                                 .horizon = 3 * static_cast<std::int64_t>(jobs),
                                 .min_window = 2, .max_window = 10, .max_work = 8},
                                seed);
    }
    if (family == "periodic") {
      return generate_periodic({.tasks = std::max<std::size_t>(jobs / 3, 1),
                                .machines = machines, .hyperperiods = 2,
                                .max_work = 6}, seed);
    }
    throw std::invalid_argument("unknown family: " + family);
  }();

  save_instance(instance, out);
  std::cout << "wrote " << out << ": " << instance.summary() << "\n";
  return 0;
}

int cmd_info(const CliArgs& args) {
  if (args.positional().size() < 2) {
    std::cerr << "usage: trace_tool info <trace.json>\n";
    return 2;
  }
  Instance instance = load_instance(args.positional()[1]);
  std::cout << instance.summary() << "\n" << analyze(instance).to_string() << "\n";
  AlphaPower p(3.0);
  std::cout << "energy lower bound (alpha=3): " << best_lower_bound(instance, p, 3.0)
            << "\n";
  return 0;
}

int cmd_run(const CliArgs& args) {
  if (args.positional().size() < 2) {
    std::cerr << "usage: trace_tool run <trace.json> --algo=opt|fast|oa|avr|lp|greedy\n";
    return 2;
  }
  Instance instance = load_instance(args.positional()[1]);
  std::string algo = args.get("algo", "opt");
  // --alpha rides on the instance as its PowerSpec: the facade reads it from
  // there, and a re-saved trace carries the power model with it.
  instance = instance.with_power(PowerSpec::alpha(args.get_double("alpha", 3.0)));
  AlphaPower p(args.get_double("alpha", 3.0));

  std::unique_ptr<obs::JsonlSink> sink;
  if (args.has("trace")) {
    sink = std::make_unique<obs::JsonlSink>(args.get("trace", "events.jsonl"));
  }

  if (algo == "greedy") {
    // The non-migratory baseline is not a facade engine; it keeps its direct path.
    auto result = nonmigratory_greedy(instance, p);
    std::cout << "non-migratory greedy\n";
    auto report = check_schedule(instance, result.schedule);
    std::cout << "feasible: " << (report.feasible ? "yes" : "NO") << "\n";
    if (!report.feasible) return 1;
    std::cout << "energy under " << p.name() << ": " << result.schedule.energy(p)
              << "\n";
    return 0;
  }

  SolveOptions options;
  options.trace = sink.get();
  std::optional<Engine> engine = engine_from_name(algo);
  if (!engine) {
    std::cerr << "unknown --algo: " << algo << "\n";
    return 2;
  }
  options.engine = *engine;
  if (options.engine == Engine::kLp) {
    options.lp_grid = static_cast<std::size_t>(args.get_int("lp-grid", 8));
  }

  SolveResult result = solve(instance, options);
  if (sink) sink->flush();
  std::cout << engine_name(options.engine) << ": "
            << solve_status_name(result.status) << "\n";
  if (!result.ok()) {
    std::cerr << "  " << result.error_detail << "\n";
    return 1;
  }
  std::cout << "stats: " << result.stats.phases << " phases, "
            << result.stats.flow_computations << " flow computations, "
            << result.stats.candidate_removals << " removals, "
            << result.stats.simplex_pivots << " pivots, " << result.stats.replans
            << " replans, " << result.stats.peel_events << " peels, "
            << Table::num(result.stats.wall_seconds, 6) << " s\n";
  if (const std::uint64_t guide_flows =
          result.stats.counters.value("optimal.guide_flow_computations")) {
    std::cout << "guide: " << guide_flows << " flow computations, "
              << result.stats.counters.value("optimal.guide_candidate_removals")
              << " removals\n";
  }

  if (const Schedule* schedule = result.exact_schedule()) {
    auto report = check_schedule(instance, *schedule);
    std::cout << "feasible: " << (report.feasible ? "yes" : "NO") << "\n";
    if (!report.feasible) {
      for (const auto& violation : report.violations) {
        std::cout << "  " << violation << "\n";
      }
      return 1;
    }
    std::cout << "energy under " << p.name() << ": " << result.energy << "\n";
    if (args.get_bool("gantt", false)) {
      std::cout << "\n" << render_gantt(*schedule);
    }
  } else if (result.fast_schedule() != nullptr) {
    std::size_t violations = result.violations(instance);
    std::cout << "feasible (1e-7 tolerance): " << (violations == 0 ? "yes" : "NO")
              << "\n";
    if (violations != 0) return 1;
    std::cout << "energy under " << p.name() << ": " << result.energy << "\n";
  } else {
    // LP: an energy bound, no schedule.
    std::cout << "LP bound under " << p.name() << ": " << result.energy << " ("
              << result.stats.counters.value("lp.variables") << " vars, "
              << result.stats.counters.value("lp.constraints") << " rows)\n";
  }
  if (args.has("save")) {
    const std::string path = args.get("save", "result.json");
    std::string text;
    json::Writer writer(text);
    net::write_result(writer, result);
    std::ofstream out(path);
    out << text << "\n";
    if (!out) throw std::runtime_error("cannot write " + path);
    std::cout << "result written to " << path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    mpss::CliArgs args(argc, argv,
                       {"family", "jobs", "machines", "seed", "out", "algo", "alpha",
                        "gantt", "save", "trace", "lp-grid"});
    if (args.positional().empty()) {
      std::cerr << "usage: trace_tool <gen|info|run> [options]\n";
      return 2;
    }
    const std::string& command = args.positional()[0];
    if (command == "gen") return cmd_gen(args);
    if (command == "info") return cmd_info(args);
    if (command == "run") return cmd_run(args);
    std::cerr << "unknown command: " << command << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
