// Public API surface test: includes ONLY the umbrella header and touches every
// public entry point once. Protects against headers silently dropping out of
// mpss.hpp and against accidental signature breaks (this file is effectively the
// library's compile-time contract).

#include "mpss/mpss.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mpss {
namespace {

TEST(ApiSurface, EverySubsystemReachableThroughUmbrellaHeader) {
  // util
  BigInt big = BigInt::from_string("42");
  Q q(1, 3);
  Xoshiro256 rng(1);
  RunningStats stats;
  stats.add(1.0);
  SampleSet samples;
  samples.add(1.0);
  std::ostringstream sink;
  CsvWriter csv(sink);
  csv.row(std::string("x"), 1);
  Table table({"a"});
  table.row(1);
  table.print(sink);
  table.print_csv(sink);
  parallel_for(2, [](std::size_t) {}, 2);

  // core model
  Instance instance({Job{Q(0), Q(2), Q(2)}, Job{Q(0), Q(2), Q(2)}}, 2);
  IntervalDecomposition intervals(instance.jobs());
  AlphaPower alpha_power(2.0);
  PiecewiseLinearPower piecewise({{0, 0}, {1, 1}, {2, 4}});
  CubicPlusLeakagePower cubic(1, 0, 0);

  // offline engines
  OptimalResult optimal = optimal_schedule(instance);
  OptimalResult with_options = optimal_schedule(instance, OptimalOptions{});
  FastOptimalResult fast = optimal_schedule_fast(instance);
  YdsResult yds = yds_schedule(instance.with_machines(1));

  // schedule tooling
  EXPECT_TRUE(check_schedule(instance, optimal.schedule).feasible);
  EXPECT_EQ(count_fast_violations(instance, fast.schedule), 0u);
  (void)render_gantt(optimal.schedule);
  (void)schedule_metrics(optimal.schedule);
  (void)lemma2_normal_form(instance, optimal.schedule);
  (void)has_constant_interval_speeds(instance, optimal.schedule);
  (void)aggregate_speed_profile(optimal.schedule);
  (void)machine_speed_profile(optimal.schedule, 0);
  (void)parallelism_profile(optimal.schedule);
  (void)execute_schedule(instance, optimal.schedule);
  (void)best_lower_bound(instance, alpha_power, 2.0);
  std::vector<Chunk> chunks{{0, Q(1)}};
  Schedule packed(1);
  mcnaughton_pack(packed, Q(0), Q(2), 0, 1, Q(1), chunks);

  // online
  OnlineRunResult oa = oa_schedule(instance);
  AvrResult avr = avr_schedule(instance);
  AvrResult avr_opts = avr_schedule(instance, AvrOptions{});
  (void)avr_density_profile(instance);
  (void)bkp_schedule(instance.with_machines(1), 2.0, 8);
  (void)oa_potential_trace(instance, 2.0);
  (void)oa_competitive_bound(2.0);
  (void)avr_multi_competitive_bound(2.0);
  (void)bell_number(5);
  AdversaryConfig adversary;
  adversary.iterations = 2;
  adversary.restarts = 1;
  (void)search_adversary(OnlineAlgorithmKind::kOa, adversary, 1);

  // baselines & extensions
  (void)nonmigratory_greedy(instance, alpha_power);
  (void)lp_baseline(instance, alpha_power, 4);
  LpProblem lp;
  lp.num_vars = 1;
  lp.objective = {1.0};
  lp.add_row({{0, 1.0}}, Relation::kGreaterEqual, 1.0);
  EXPECT_EQ(solve_lp(lp).status, LpSolution::Status::kOptimal);
  (void)discretize_speeds(optimal.schedule, geometric_levels(Q(10), Q(2), 6));
  SleepModel sleep{2.0, 1.0};
  (void)race_to_idle(optimal.schedule, critical_speed_rational(sleep));
  (void)energy_with_sleep(optimal.schedule, sleep);
  (void)feasible_with_cap(instance, Q(10));
  (void)minimal_peak_speed(instance);
  (void)machines_needed(instance, Q(10), 4);
  (void)capacity_curve(instance, alpha_power, 2);

  // observability
  obs::Counters counters;
  counters.add("api.touch");
  obs::Registry::global().merge(counters);
  obs::MemorySink memory_sink;
  obs::emit(&memory_sink, obs::EventKind::kCounter, "api.surface");
  (void)obs::to_jsonl(memory_sink.events().front());
  (void)obs::parse_trace_jsonl(std::string_view(""));
  obs::SolveStats merged;
  merged.merge(optimal.stats);

  // instance value API + canonical JSON codec
  PowerSpec spec = PowerSpec::alpha(2.0);
  Instance with_spec = instance.with_power(spec);
  (void)with_spec.fingerprint();
  Instance decoded = instance_from_json(instance_to_json(with_spec));

  // the network layer: server, client, protocol codec
  net::SolveServer server;
  net::SolveClient client("127.0.0.1", server.port());
  SolveResult remote = client.solve(instance);
  (void)client.health();
  server.shutdown();
  (void)net::verb_name(net::Verb::kSolve);
  (void)net::error_code_name(net::ErrorCode::kQueueFull);

  // the solve() facade
  SolveResult facade = solve(instance);
  SolveOptions lp_options;
  lp_options.engine = Engine::kLp;
  lp_options.lp_grid = 4;
  SolveResult lp_facade = solve(instance, lp_options);
  (void)engine_name(Engine::kFast);
  (void)solve_status_name(facade.status);

  // workloads
  (void)generate_uniform({.jobs = 2, .machines = 1, .horizon = 4, .max_window = 2,
                          .max_work = 2}, 1);
  (void)generate_heavy_tail({.jobs = 2, .machines = 1, .horizon = 8, .shape = 1.5,
                             .max_work = 4}, 1);
  (void)analyze(instance);
  (void)shift_time(instance, Q(1));
  (void)scale_time(instance, Q(2));
  (void)scale_work(instance, Q(2));

  // Spot-check values so the calls above are not optimized into oblivion.
  EXPECT_EQ(big.to_int64(), 42);
  EXPECT_EQ(q * Q(3), Q(1));
  EXPECT_EQ(optimal.phases.size(), with_options.phases.size());
  EXPECT_EQ(fast.phase_speeds.size(), optimal.phases.size());
  EXPECT_EQ(yds.schedule.machines(), 1u);
  EXPECT_EQ(oa.schedule.machines(), 2u);
  EXPECT_EQ(avr.schedule.machines(), avr_opts.schedule.machines());
  EXPECT_GT(rng(), 0u);
  EXPECT_EQ(memory_sink.count_label("api.surface"), 1u);
  EXPECT_EQ(merged.phases, optimal.phases.size());
  EXPECT_EQ(decoded, with_spec);
  EXPECT_EQ(remote.energy, solve(instance).energy);
  ASSERT_TRUE(facade.ok());
  ASSERT_NE(facade.exact_schedule(), nullptr);
  EXPECT_TRUE(lp_facade.ok());
  EXPECT_DOUBLE_EQ(facade.energy,
                   optimal.schedule.energy(AlphaPower(3.0)));
}

}  // namespace
}  // namespace mpss
