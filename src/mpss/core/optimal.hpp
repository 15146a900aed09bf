#pragma once
// The paper's primary contribution (Section 2): a strongly combinatorial,
// polynomial-time algorithm computing energy-optimal multi-processor schedules
// with migration, for any convex non-decreasing power function.
//
// Outline (Fig. 2 of the paper). The optimal schedule processes each job at one
// constant speed (Lemma 1); grouping jobs by speed partitions them into sets
// J_1, ..., J_p with s_1 > ... > s_p. Phase i recovers J_i:
//
//   * maintain a candidate set J (initially all remaining jobs); in every round,
//     reserve m_j = min(n_j, m - sum_{l<i} m_lj) processors per atomic interval
//     (Lemma 3), set s = W / P (total work over reserved processing time), and ask
//     a max-flow network G(J, m, s) whether J can be feasibly scheduled at uniform
//     speed s on the reservation;
//   * if the max-flow value reaches W/s, J is exactly J_i (Lemma 5); otherwise
//     every job with an unsaturated edge into an interval whose sink edge is
//     unsaturated provably does not belong to J_i (Lemma 4) -- remove all of
//     them and repeat.
//
// Rounds are warm-started: the network is built once per phase, and each removal
// round retracts the victims' flow, rescales the source capacities to the new
// speed, and resumes Dinic from the carried feasible flow (DESIGN.md
// "Warm-start invariant").
//
// The exact engine is guided (DESIGN.md "Guided exact engine"): the
// double-precision engine computes the phase partition first, each exact phase
// starts from its hinted job set, and certify_optimal (core/certify.hpp) proves
// the result before it returns; a result it cannot prove is recomputed by the
// plain loop. So a phase usually closes in one exact max-flow.
//
// The flow on edge (u_k, v_j) is the processing time of job k inside interval I_j;
// each interval's sequential working schedule is McNaughton-wrapped onto the
// reserved processors. Phases claim the lowest-numbered free processors, so faster
// sets sit on lower machine indices (the Lemma 6 normal form).
//
// All arithmetic is exact (mpss::Q), making the "flow value == W/s" test literal.
// core/optimal.cpp holds this loop once, templated on a numeric policy; the
// double-precision engine (optimal_fast.hpp) is its other instantiation.
//
// Note the power function does not appear: the optimal *schedule* is the same for
// every convex non-decreasing P (the algorithm minimizes speeds lexicographically);
// P only enters when measuring the energy of the result.

#include <cstddef>
#include <span>
#include <vector>

#include "mpss/core/intervals.hpp"
#include "mpss/core/job.hpp"
#include "mpss/core/schedule.hpp"
#include "mpss/obs/stats.hpp"
#include "mpss/util/cancel.hpp"
#include "mpss/util/rational.hpp"

namespace mpss {

/// Diagnostics for one phase of the algorithm.
struct PhaseInfo {
  /// Job indices (into the instance) forming J_i.
  std::vector<std::size_t> jobs;
  /// The uniform speed s_i of this set.
  Q speed;
  /// m_ij: processors reserved in each atomic interval (indexed like the
  /// decomposition's intervals).
  std::vector<std::size_t> machines_per_interval;
  /// Max-flow computations spent identifying this set (1 + number of removal
  /// rounds; one round may remove several jobs).
  std::size_t rounds = 0;
};

/// Output of the offline algorithm: the schedule plus the full phase structure
/// (which the structural property tests and the OA(m) analysis hooks inspect).
struct OptimalResult {
  /// job_phase value for jobs that belong to no phase (zero work).
  static constexpr std::size_t kNoPhase = static_cast<std::size_t>(-1);

  Schedule schedule;
  IntervalDecomposition intervals;
  std::vector<PhaseInfo> phases;
  /// Telemetry: phase/round/removal counts plus flow-kernel work and wall time.
  /// `stats.flow_computations` is the sum of the phases' rounds;
  /// `stats.phases` equals `phases.size()`.
  obs::SolveStats stats;
  /// Index into `phases` per job (kNoPhase for zero-work jobs), filled as the
  /// phases close so speed_of_job is O(1) instead of a phase scan.
  std::vector<std::size_t> job_phase;

  /// Speed at which `job` is processed. Returns 0 for zero-work jobs (which
  /// belong to no phase) and for indices the instance does not contain.
  [[nodiscard]] Q speed_of_job(std::size_t job) const;

  /// Number of distinct speed levels p.
  [[nodiscard]] std::size_t level_count() const { return phases.size(); }
};

/// Ablation knobs (experiment E12). The paper's Lemma 4 licenses removing only a
/// job whose edge into an *unsaturated* interval vertex carries slack; the
/// ablated policy removes an arbitrary candidate instead, demonstrating why the
/// principled rule matters (wrong sets J_i -> higher energy, or broken phase
/// structure). Production callers use the default.
struct OptimalOptions {
  enum class RemovalPolicy {
    kPaperRule,        // line 10 of Fig. 2 -- provably correct
    kRandomCandidate,  // ABLATION ONLY: drop a random candidate when the flow
                       // falls short
  };
  RemovalPolicy removal_policy = RemovalPolicy::kPaperRule;
  std::uint64_t ablation_seed = 0;  // PRNG seed for kRandomCandidate
  /// Cooperative cancellation / soft deadline, polled at phase and round
  /// boundaries (util/cancel.hpp). When the token fires the engine throws
  /// CancelledError; the solve() facade turns that into kCancelled /
  /// kDeadlineExceeded. Null (the default) never fires. Not owned; must
  /// outlive the call.
  const CancelToken* cancel = nullptr;
};

/// Computes an energy-optimal schedule for `instance` (Theorem 1 of the paper).
/// Optimality holds simultaneously for every convex non-decreasing power function.
/// Never fails on valid instances: with unbounded speeds every instance is
/// feasible. Runs in polynomial time (O(n) phases, each O(n) max-flow rounds).
[[nodiscard]] OptimalResult optimal_schedule(const Instance& instance);

/// As above with ablation/cancellation options. Under the paper's removal rule
/// it runs optimal_schedule_fast as a guide (same cancel token, same trace
/// sink) and returns optimal_schedule_hinted for the guide's job_phase, whose
/// stats counters `optimal.guide_flow_computations` and
/// `optimal.guide_candidate_removals` carry the guide's own work (the stats
/// fields count the exact loop alone); a guide that throws anything but
/// CancelledError counts one `optimal.guide_fallbacks` and the plain loop runs
/// instead. With kRandomCandidate it runs the plain, uncertified loop: the
/// result is feasible but may be suboptimal (and phase speeds may not
/// decrease), and InternalError is thrown if the ablated removals empty a
/// candidate set. Throws CancelledError when `options.cancel` fires.
///
/// `trace` records phase boundaries, per-round flow values, and candidate
/// removals as obs events, the guide's under "optimal_fast.*" labels, all
/// inside one "optimal.solve" span; null falls back to the process-wide sink in
/// obs::Registry (itself null by default -> no emission). The solve() facade
/// is the preferred way to drive tracing (it owns sink resolution; see
/// SolveOptions::trace) -- this parameter serves direct engine callers.
[[nodiscard]] OptimalResult optimal_schedule(const Instance& instance,
                                             const OptimalOptions& options,
                                             obs::TraceSink* trace = nullptr);

/// The phase loop with a per-job phase hint, proved by certify_optimal. Phase i
/// (0-based) starts from the remaining jobs hinted at <= max(i, lowest
/// remaining hint) instead of from all of them, so a hint equal to the optimal
/// partition closes every phase in one max-flow; an empty or all-zero hint is
/// the plain loop. The result returns only once the certificate accepts it
/// (stats counter `optimal.guided_phases` = its phase count). When the hinted
/// run throws InternalError or fails the certificate, the plain loop runs
/// instead and `optimal.guide_fallbacks` is 1; so any hint yields the optimum,
/// and a certified result is bit-identical to the plain loop's (DESIGN.md
/// "Guided exact engine").
///
/// `hint` is empty or has one entry per job, and `options` uses the paper's
/// removal rule; std::invalid_argument otherwise. Throws CancelledError when
/// `options.cancel` fires. `trace` as for optimal_schedule.
[[nodiscard]] OptimalResult optimal_schedule_hinted(const Instance& instance,
                                                    std::span<const std::size_t> hint,
                                                    const OptimalOptions& options = {},
                                                    obs::TraceSink* trace = nullptr);

/// Convenience: the optimal energy under power function `p` (computes the schedule
/// and measures it).
[[nodiscard]] double optimal_energy(const Instance& instance, const PowerFunction& p);

}  // namespace mpss
