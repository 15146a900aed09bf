// Scenario: a small compute cluster running bursty batch jobs -- the setting the
// paper's introduction motivates ("compute clusters and server farms ... power
// dissipation has become a major concern").
//
// Generates a bursty workload, schedules it with every strategy in the library,
// and prints an energy scoreboard. Also exports the workload as canonical instance
// JSON so the run is reproducible outside this binary.
//
// Usage: ./build/examples/datacenter_batch [--machines=8] [--bursts=6]
//          [--jobs-per-burst=8] [--alpha=3] [--seed=1] [--trace=out.json]

#include <iostream>

#include "mpss/mpss.hpp"

int main(int argc, char** argv) {
  using namespace mpss;
  CliArgs args(argc, argv,
               {"machines", "bursts", "jobs-per-burst", "alpha", "seed", "trace"});

  BurstyWorkload config;
  config.machines = static_cast<std::size_t>(args.get_int("machines", 8));
  config.bursts = static_cast<std::size_t>(args.get_int("bursts", 6));
  config.jobs_per_burst = static_cast<std::size_t>(args.get_int("jobs-per-burst", 8));
  config.horizon = 10 * static_cast<std::int64_t>(config.bursts);
  config.burst_window = 6;
  config.max_work = 8;
  double alpha = args.get_double("alpha", 3.0);
  auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  // The power model rides on the instance itself (PowerSpec), so the facade,
  // the baselines, and a serialized copy of this workload all measure energy
  // the same way -- no side-channel power argument to keep in sync.
  Instance instance =
      generate_bursty(config, seed).with_power(PowerSpec::alpha(alpha));
  std::cout << "cluster workload: " << instance.summary() << "\n";
  if (args.has("trace")) {
    save_instance(instance, args.get("trace", "trace.json"));
    std::cout << "trace written to " << args.get("trace", "trace.json") << "\n";
  }
  auto power = instance.power().instantiate();
  const PowerFunction& p = *power;

  // The scoreboard engines all run through the unified facade; each row's notes
  // come out of the common SolveStats telemetry.
  auto run = [&](Engine engine) {
    SolveOptions options;
    options.engine = engine;
    return solve(instance, options);
  };

  SolveResult opt = run(Engine::kExact);
  double e_opt = opt.energy;

  Table table({"strategy", "energy", "vs OPT", "notes"});
  table.row(std::string("OPT (migratory, offline)"), e_opt, 1.0,
            std::to_string(opt.stats.phases) + " speed levels, " +
                std::to_string(opt.stats.flow_computations) + " flow computations");

  SolveResult fast = run(Engine::kFast);
  table.row(std::string("OPT (double-precision)"), fast.energy, fast.energy / e_opt,
            std::to_string(fast.stats.flow_computations) + " flow computations, " +
                Table::num(fast.stats.wall_seconds * 1e3, 1) + " ms");

  SolveResult oa = run(Engine::kOa);
  table.row(std::string("OA(m) (online)"), oa.energy, oa.energy / e_opt,
            std::to_string(oa.stats.replans) + " replans, bound " +
                Table::num(oa_competitive_bound(alpha), 1));

  SolveResult avr = run(Engine::kAvr);
  table.row(std::string("AVR(m) (online)"), avr.energy, avr.energy / e_opt,
            std::to_string(avr.stats.peel_events) + " peels, bound " +
                Table::num(avr_multi_competitive_bound(alpha), 1));

  auto greedy = nonmigratory_greedy(instance, p);
  table.row(std::string("no-migration greedy"), greedy.energy, greedy.energy / e_opt,
            std::string("jobs pinned to machines"));

  auto round_robin = nonmigratory_round_robin(instance, p);
  table.row(std::string("no-migration round-robin"), round_robin.energy,
            round_robin.energy / e_opt, std::string(""));

  std::cout << '\n';
  table.print(std::cout);

  // Every schedule above passed through the exact feasibility checker at least
  // once in the test suite; verify the headline one here too.
  const Schedule& opt_schedule = *opt.exact_schedule();
  if (std::size_t violations = opt.violations(instance); violations != 0) {
    std::cerr << "BUG: optimal schedule has " << violations
              << " feasibility violations\n";
    return 1;
  }
  std::cout << "\nall schedules complete " << instance.total_work()
            << " units of work; OPT peak speed " << opt_schedule.max_speed() << "\n";

  // Capacity planning: what does each extra machine buy?
  std::cout << "\ncapacity curve (optimal energy & required peak speed by machine "
               "count):\n";
  Table capacity({"machines", "energy", "vs current", "peak speed"});
  auto curve = capacity_curve(instance, p, config.machines);
  for (const CapacityPoint& point : curve) {
    capacity.row(point.machines, point.energy, point.energy / e_opt,
                 point.peak_speed);
  }
  capacity.print(std::cout);
  return 0;
}
