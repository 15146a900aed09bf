#pragma once
// Umbrella header: the full public API of the mpss library.
//
// mpss reproduces "On multi-processor speed scaling with migration"
// (Albers, Antoniadis, Greiner; SPAA 2011 / JCSS 2015):
//   * optimal_schedule()  -- the paper's combinatorial offline algorithm (Sec. 2),
//   * oa_schedule()       -- Optimal Available for m processors (Sec. 3.1),
//   * avr_schedule()      -- Average Rate for m processors (Sec. 3.2),
//   * certify_optimal()   -- Theorem 1 checked on one exact schedule: optimal
//                            for every convex non-decreasing P, or why not,
//   * solve()             -- one facade over all engines, with telemetry,
//   * BatchSolver         -- concurrent batch service over solve() (caching,
//                            deadlines, priorities; service/batch_solver.hpp),
//   * SolveServer/Client  -- the TCP solve daemon and its blocking client
//                            (framed JSON protocol; net/server.hpp),
// plus every substrate they stand on (exact rationals, max-flow, YDS, LP baseline,
// non-migratory baselines, workload generators). See README.md for a tour.

#include "mpss/core/certify.hpp"
#include "mpss/core/gantt.hpp"
#include "mpss/core/instance_json.hpp"
#include "mpss/core/intervals.hpp"
#include "mpss/core/job.hpp"
#include "mpss/core/lower_bounds.hpp"
#include "mpss/core/mcnaughton.hpp"
#include "mpss/core/metrics.hpp"
#include "mpss/core/normalize.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/core/optimal_fast.hpp"
#include "mpss/core/power.hpp"
#include "mpss/core/profile.hpp"
#include "mpss/core/schedule.hpp"
#include "mpss/core/yds.hpp"
#include "mpss/ext/bounded_speed.hpp"
#include "mpss/ext/capacity.hpp"
#include "mpss/ext/discrete_speeds.hpp"
#include "mpss/ext/sleep.hpp"
#include "mpss/flow/dinic.hpp"
#include "mpss/lp/lp_baseline.hpp"
#include "mpss/lp/simplex.hpp"
#include "mpss/net/client.hpp"
#include "mpss/net/framing.hpp"
#include "mpss/net/protocol.hpp"
#include "mpss/net/server.hpp"
#include "mpss/nomig/nonmigratory.hpp"
#include "mpss/obs/counters.hpp"
#include "mpss/obs/histogram.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/obs/ring_sink.hpp"
#include "mpss/obs/span.hpp"
#include "mpss/obs/stats.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/online/adversary_search.hpp"
#include "mpss/online/avr.hpp"
#include "mpss/online/bkp.hpp"
#include "mpss/online/bounds.hpp"
#include "mpss/online/oa.hpp"
#include "mpss/online/potential.hpp"
#include "mpss/online/simulator.hpp"
#include "mpss/service/batch_solver.hpp"
#include "mpss/service/fingerprint.hpp"
#include "mpss/sim/executor.hpp"
#include "mpss/solve.hpp"
#include "mpss/util/cancel.hpp"
#include "mpss/util/cli.hpp"
#include "mpss/util/csv.hpp"
#include "mpss/util/error.hpp"
#include "mpss/util/json.hpp"
#include "mpss/util/numeric_counters.hpp"
#include "mpss/util/random.hpp"
#include "mpss/util/rational.hpp"
#include "mpss/util/stats.hpp"
#include "mpss/util/table.hpp"
#include "mpss/util/thread_pool.hpp"
#include "mpss/workload/analysis.hpp"
#include "mpss/workload/generators.hpp"
#include "mpss/workload/transform.hpp"
