#include "mpss/core/optimal.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "mpss/core/certify.hpp"
#include "mpss/core/mcnaughton.hpp"
#include "mpss/core/optimal_fast.hpp"
#include "mpss/flow/dinic.hpp"
#include "mpss/obs/histogram.hpp"
#include "mpss/obs/span.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/util/arena.hpp"
#include "mpss/util/error.hpp"
#include "mpss/util/random.hpp"

namespace mpss {
namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

// Strict sign tests, unlike FlowTraits<double>::is_positive's 1e-12 cutoff.
bool positive(const Q& value) { return value.sign() > 0; }
bool positive(double value) { return value > 0.0; }
double to_double(const Q& value) { return value.to_double(); }
double to_double(double value) { return value; }

/// Trace, counter and histogram names of one engine: both engines emit the
/// same stream, under "optimal.*" and "optimal_fast.*" respectively.
struct Labels {
  std::string_view solve, phase, round, warm_start, lemma4_removal, ablated_removal,
      arena, intervals, round_us, rounds_per_phase, resume_bfs;
};

/// Throws InternalError("<engine>: <what>"). A separate no-return call keeps
/// the message building out of the loop body the checks below are inlined into.
[[noreturn]] void throw_loop_error(const char* engine, const char* what) {
  throw InternalError(std::string(engine) + ": " + what);
}

/// check_internal with the engine's entry point in front of the message.
template <class Policy>
void check_loop(bool condition, const char* what) {
  if (!condition) throw_loop_error(Policy::kName, what);
}

/// One phase's flow network G(J, m, s) plus the bookkeeping needed to read
/// per-(job, interval) processing times back out of the solved flow and to
/// edit capacities in place between rounds. Edge vectors are addressed by
/// position in the candidate set the network was *built* for; the round loop
/// maps current candidate positions back to build positions.
template <typename T>
struct RoundNetwork {
  using EdgeId = typename FlowNetwork<T>::EdgeId;

  FlowNetwork<T> net;
  std::size_t source = 0;
  std::size_t sink = 0;
  std::vector<EdgeId> source_edges;                         // u_0 -> u_k
  std::vector<std::vector<std::size_t>> job_edge_interval;  // per job: interval j
  std::vector<std::vector<EdgeId>> job_edges;               // per job: edge ids
  std::vector<EdgeId> sink_edges;                           // v_j -> v_0 (mj > 0)
  std::vector<std::size_t> sink_edge_interval;              // interval j of each
  std::vector<std::size_t> interval_sink_edge;              // inverse (kNone if none)

  /// Edge (u_k, v_j) of build position `bpos`, or kNone when the job is not
  /// active in I_j (a job has at most one edge per interval).
  [[nodiscard]] std::size_t edge_into(std::size_t bpos, std::size_t j) const {
    for (std::size_t idx = 0; idx < job_edge_interval[bpos].size(); ++idx) {
      if (job_edge_interval[bpos][idx] == j) return job_edges[bpos][idx];
    }
    return kNone;
  }
  [[nodiscard]] EdgeId sink_edge_of(std::size_t j) const {
    return sink_edges[interval_sink_edge[j]];
  }
};

/// m_j * |I_j|: the processing time reserved on `r` processors in I_j.
template <class Policy>
typename Policy::Num reserved_time_of(const Policy& policy, std::size_t j,
                                      std::size_t r) {
  return policy.length(j) * typename Policy::Num(static_cast<std::int64_t>(r));
}

/// Builds G(J, m, s): source -> job vertices (capacity w_k / s), job -> interval
/// vertices for the intervals where the job is active and processors are reserved
/// (capacity |I_j|), interval -> sink (capacity m_j * |I_j|).
template <class Policy, typename T = typename Policy::Num>
RoundNetwork<T> build_network(const Policy& policy,
                              const std::vector<std::size_t>& candidates,
                              const ActiveBitmap& active,
                              std::span<const std::size_t> count_active,
                              std::span<const std::size_t> reserved, const T& speed,
                              Arena& scratch) {
  RoundNetwork<T> round;
  round.net.set_scratch_arena(&scratch);
  const std::size_t interval_count = reserved.size();

  std::size_t live_intervals = 0;
  std::size_t job_edge_count = 0;
  for (std::size_t j = 0; j < interval_count; ++j) {
    if (reserved[j] == 0) continue;
    ++live_intervals;
    job_edge_count += count_active[j];
  }
  round.net.reserve_nodes(2 + candidates.size() + live_intervals);
  round.net.reserve_edges(candidates.size() + job_edge_count + live_intervals);

  round.source = round.net.add_node();
  std::size_t first_job_node = round.net.add_nodes(candidates.size());

  std::span<std::size_t> interval_node =
      scratch.alloc_array<std::size_t>(interval_count, kNone);
  for (std::size_t j = 0; j < interval_count; ++j) {
    if (reserved[j] > 0) interval_node[j] = round.net.add_node();
  }
  round.sink = round.net.add_node();

  round.source_edges.reserve(candidates.size());
  round.job_edges.resize(candidates.size());
  round.job_edge_interval.resize(candidates.size());
  for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
    std::size_t job = candidates[pos];
    round.source_edges.push_back(
        round.net.add_edge(round.source, first_job_node + pos, policy.work(job) / speed));
    for (std::size_t j = 0; j < interval_count; ++j) {
      if (reserved[j] == 0 || !active.test(j, job)) continue;
      round.job_edges[pos].push_back(
          round.net.add_edge(first_job_node + pos, interval_node[j], policy.length(j)));
      round.job_edge_interval[pos].push_back(j);
    }
  }
  round.interval_sink_edge.assign(interval_count, kNone);
  for (std::size_t j = 0; j < interval_count; ++j) {
    if (reserved[j] == 0) continue;
    round.interval_sink_edge[j] = round.sink_edges.size();
    round.sink_edges.push_back(round.net.add_edge(
        interval_node[j], round.sink, reserved_time_of(policy, j, reserved[j])));
    round.sink_edge_interval.push_back(j);
  }
  return round;
}

/// Retracts `amount` flow entering build-position `bpos`'s job vertex, greedily
/// over its job->interval edges. Every unit of flow sits on a length-3 path
/// (source, u_k, v_j, sink) because the network is strictly layered, so each
/// retraction is an edge triple and no general flow decomposition is needed.
/// Returns the number of per-edge-triple retraction operations performed (the
/// flow.retracted_units telemetry).
template <class Policy, typename T>
std::uint64_t retract_job_flow(RoundNetwork<T>& round, std::size_t bpos, T amount) {
  std::uint64_t operations = 0;
  for (std::size_t idx = 0; idx < round.job_edges[bpos].size(); ++idx) {
    if (!positive(amount)) break;
    const std::size_t edge = round.job_edges[bpos][idx];
    T carried = round.net.flow(edge);
    if (!positive(carried)) continue;
    T delta = carried < amount ? carried : amount;
    const std::size_t source_edge = round.source_edges[bpos];
    const std::size_t sink_edge = round.sink_edge_of(round.job_edge_interval[bpos][idx]);
    round.net.retract_flow(edge, delta);
    Policy::retract_shared(round.net, source_edge, delta);
    Policy::retract_shared(round.net, sink_edge, delta);
    amount -= delta;
    ++operations;
  }
  Policy::check_retracted(amount);
  return operations;
}

/// The phase loop of Fig. 2 (outlined in optimal.hpp), shared by both engines.
/// `Policy` supplies the number type, the interval decomposition and activity
/// bitmap, the acceptance tests and epsilon clamps, and the phase output; this
/// loop owns the round network, warm starts, flow retraction, the Lemma 4
/// victim search, and the stats and trace folding into `result`. `hint` is
/// empty or one phase index per job (optimal_schedule_hinted). The caller owns
/// the root span and the wall-time timer (run_under_solve_span).
template <class Policy>
void run_phases(const Instance& instance, const Policy& policy,
                typename Policy::Result& result, const OptimalOptions& options,
                std::span<const std::size_t> hint, obs::TraceSink* trace) {
  using T = typename Policy::Num;
  constexpr const Labels& labels = Policy::kLabels;
  const bool paper_rule =
      options.removal_policy == OptimalOptions::RemovalPolicy::kPaperRule;
  Xoshiro256 ablation_rng(options.ablation_seed);
  const std::size_t interval_count = policy.interval_count();
  const std::size_t m = instance.machines();

  // Per-solve scratch arena (S46): pooled per thread, so repeat solves on a
  // BatchSolver worker reuse one warmed arena. Declared before any
  // RoundNetwork so the networks' scratch spans die first. The fallback-alloc
  // delta over this solve is the steady-state-allocation telemetry.
  ScopedArena scratch;
  const std::uint64_t arena_fallback_base = scratch->stats().fallback_allocs;
  result.stats.counters.set(labels.intervals, interval_count);

  // Jobs with positive work; zero-work jobs are trivially complete.
  std::vector<std::size_t> remaining;
  for (std::size_t k = 0; k < instance.size(); ++k) {
    if (positive(policy.work(k))) remaining.push_back(k);
  }

  // Row j, column k: is job k active in interval I_j (I_j inside its window)?
  const ActiveBitmap active = policy.active();
  // Bit k set iff job k is in the current phase's candidate set; ANDed against
  // bitmap rows for the per-round n_j recount, and doubling as the membership
  // test when the phase's jobs are dropped from `remaining`. Fixed-shape
  // interval tables live in the scratch arena.
  std::span<std::uint64_t> candidate_mask = scratch->alloc_array<std::uint64_t>(
      ActiveBitmap::words_for(instance.size()), std::uint64_t{0});

  // used[j]: processors already occupied in I_j by earlier (faster) phases.
  std::span<std::size_t> used =
      scratch->alloc_array<std::size_t>(interval_count, std::size_t{0});
  std::span<std::size_t> count_active =
      scratch->alloc_array<std::size_t>(interval_count, std::size_t{0});
  // sink_slack[j]: whether I_j's sink edge is below capacity in the round's
  // max flow (read only for intervals with a sink edge in the current network).
  std::span<std::uint8_t> sink_slack =
      scratch->alloc_array<std::uint8_t>(interval_count, std::uint8_t{0});

  std::uint64_t warm_starts = 0;
  std::uint64_t retracted_units = 0;
  std::uint64_t resume_bfs = 0;

  // Per-solve distributions (S43): folded into stats.histograms on return.
  obs::HistogramData round_us;          // wall microseconds per flow round
  obs::HistogramData rounds_per_phase;  // Lemma-4 chain length per phase
  obs::HistogramData resume_bfs_hist;   // BFS passes per warm-started resume

  std::vector<typename Policy::Chunk> chunks;  // one interval's phase output
  std::size_t phases = 0;
  while (!remaining.empty()) {
    // ---- one phase: identify the next job set J_i and its speed s_i ----
    poll_cancellation(options.cancel);
    obs::SpanScope phase_span(trace, labels.phase);
    const std::size_t phase_index = phases++;
    std::vector<std::size_t> candidates = remaining;  // invariant: J_i is a subset
    if (!hint.empty()) {
      // Start from the jobs hinted at <= max(i, lowest remaining hint): Lemmas
      // 4-5 need only J_i inside this set, and the lowest remaining hint keeps
      // it non-empty. A wrong hint breaks a loop invariant or the certificate.
      std::size_t lowest = kNone;
      for (std::size_t job : remaining) lowest = std::min(lowest, hint[job]);
      const std::size_t limit = std::max(phase_index, lowest);
      std::erase_if(candidates, [&](std::size_t job) { return hint[job] > limit; });
    }
    std::ranges::fill(candidate_mask, 0);
    for (std::size_t job : candidates) ActiveBitmap::mask_set(candidate_mask, job);
    std::size_t rounds = 0;
    obs::emit(trace, obs::EventKind::kPhaseStart, labels.phase, phase_index,
              candidates.size());

    std::span<std::size_t> reserved =
        scratch->alloc_array<std::size_t>(interval_count, std::size_t{0});
    T speed{};
    RoundNetwork<T> round;
    // Maps current candidate position -> position at network build time (the
    // index into round.source_edges / round.job_edges). Identity right after the
    // build; compacted alongside `candidates` as victims leave.
    std::vector<std::size_t> built_pos;

    for (;;) {
      // Round boundary: the network is consistent here (no half-applied
      // retraction), making this the fine-grained cancellation checkpoint.
      poll_cancellation(options.cancel);
      obs::SpanScope round_span(trace, labels.round);
      obs::ScopedHistogramTimer round_timer(round_us);
      check_loop<Policy>(!candidates.empty(),
                         "candidate set emptied; Lemma 4 invariant broken");
      ++rounds;
      ++result.stats.flow_computations;
      // The phase's first round builds the network; later rounds resume it.
      const bool resumed = rounds > 1;

      // Reserve m_j = min(n_j, m - used_j) processors per interval (Lemma 3).
      // Within a phase n_j only shrinks, so once the network is built a changed
      // reservation is a capacity *decrease* on an existing sink edge; the
      // victims' retractions already lowered the carried flow below the new cap,
      // since each surviving job carries at most |I_j| into I_j (see DESIGN.md
      // "Warm-start invariant").
      T reserved_time{};  // P
      T work{};           // W
      for (std::size_t j = 0; j < interval_count; ++j) {
        count_active[j] = active.row_and_popcount(j, candidate_mask);
        const std::size_t r = std::min(count_active[j], m - used[j]);
        if (resumed && r != reserved[j]) {
          Policy::set_capacity(round.net, round.sink_edge_of(j),
                               reserved_time_of(policy, j, r));
        }
        reserved[j] = r;
        if (r > 0) reserved_time += reserved_time_of(policy, j, r);
      }
      for (std::size_t job : candidates) work += policy.work(job);
      check_loop<Policy>(positive(reserved_time),
                         "no processing capacity left for pending jobs");
      speed = work / reserved_time;

      T flow_value{};
      if (!resumed) {
        round = build_network(policy, candidates, active, count_active, reserved, speed,
                              *scratch);
        built_pos.resize(candidates.size());
        std::iota(built_pos.begin(), built_pos.end(), std::size_t{0});
        flow_value = round.net.max_flow(round.source, round.sink);
      } else {
        // Warm start: rescale the surviving source capacities to the new speed
        // and resume Dinic from the carried flow. The new speed can *exceed*
        // the old one (a removal can shed more reserved time than work), so a
        // source edge may have to drain down to its shrunken capacity first.
        for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
          const std::size_t edge = round.source_edges[built_pos[pos]];
          T cap = policy.work(candidates[pos]) / speed;
          T excess = round.net.flow(edge) - cap;
          if (positive(excess)) {
            retracted_units += retract_job_flow<Policy>(round, built_pos[pos], excess);
          }
          Policy::set_capacity(round.net, edge, cap);
        }
        flow_value = round.net.max_flow_resume(round.source, round.sink);
        ++warm_starts;
        resume_bfs += round.net.kernel_stats().bfs_rounds;
        resume_bfs_hist.record(round.net.kernel_stats().bfs_rounds);
        obs::emit(trace, obs::EventKind::kCounter, labels.warm_start, phase_index,
                  rounds, static_cast<double>(round.net.kernel_stats().bfs_rounds));
      }
      result.stats.flow_bfs_rounds += round.net.kernel_stats().bfs_rounds;
      result.stats.flow_augmenting_paths += round.net.kernel_stats().augmenting_paths;
      // value = attained flow as a fraction of the target F_G = W/s = P; 1.0 on
      // the round that closes the phase (exactly, for the exact engine).
      obs::emit(trace, obs::EventKind::kFlowRound, labels.round, phase_index, rounds,
                to_double(flow_value / reserved_time));

      // Target F_G = W / s = P: all source and sink edges saturated.
      if (policy.saturates(flow_value, reserved_time)) {
        if (Policy::kCanonicalClose && resumed) {
          // The resumed flow has the optimal *value*, but the schedule is
          // extracted from the per-edge split, and a resumed split tends to
          // use more edges, hence more slices. Re-solve from zero on the
          // reused network: dead vertices (sealed source edges, drained
          // intervals) are invisible to Dinic, so this gives the flow a fresh
          // build of the final candidate set would.
          T confirm = round.net.max_flow(round.source, round.sink);
          result.stats.flow_bfs_rounds += round.net.kernel_stats().bfs_rounds;
          result.stats.flow_augmenting_paths +=
              round.net.kernel_stats().augmenting_paths;
          check_loop<Policy>(confirm == flow_value,
                             "canonical re-solve changed the flow value");
        }
        break;
      }

      // Lemma 4 (line 10 of Fig. 2): a candidate whose edge (u_k, v_j) is below
      // capacity into an interval whose sink edge (v_j, v_0) is below capacity
      // is not in J_i. The lemma holds for every such job of one max flow, so
      // all of them leave in this round. Sink slack is read before any
      // retraction: a retraction frees sink capacity but touches no other
      // job's edges. Ablated removal (experiment E12) drops one random
      // candidate instead; feasibility survives, optimality does not.
      std::size_t random_pos = kNone;
      if (paper_rule) {
        for (std::size_t e = 0; e < round.sink_edges.size(); ++e) {
          sink_slack[round.sink_edge_interval[e]] =
              policy.sink_has_slack(round.net, round.sink_edges[e]) ? 1 : 0;
        }
      } else {
        random_pos = ablation_rng.below(candidates.size());
      }
      auto excluded = [&](std::size_t bpos) {
        for (std::size_t idx = 0; idx < round.job_edges[bpos].size(); ++idx) {
          if (sink_slack[round.job_edge_interval[bpos][idx]] != 0 &&
              policy.edge_has_slack(round.net, round.job_edges[bpos][idx])) {
            return true;
          }
        }
        return false;
      };

      // Retract each victim's flow (leaving a feasible flow on the surviving
      // jobs), seal its source edge so resumed searches cannot refill it, and
      // compact the survivors in place.
      std::size_t kept = 0;
      for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
        const std::size_t bpos = built_pos[pos];
        if (paper_rule ? !excluded(bpos) : pos != random_pos) {
          candidates[kept] = candidates[pos];
          built_pos[kept++] = bpos;
          continue;
        }
        ++result.stats.candidate_removals;
        obs::emit(trace, obs::EventKind::kCandidateRemoved,
                  paper_rule ? labels.lemma4_removal : labels.ablated_removal,
                  phase_index, candidates[pos]);
        const std::size_t edge = round.source_edges[bpos];
        T carried = round.net.flow(edge);
        if (positive(carried)) {
          retracted_units += retract_job_flow<Policy>(round, bpos, carried);
        }
        Policy::set_capacity(round.net, edge, T(0));
        ActiveBitmap::mask_clear(candidate_mask, candidates[pos]);
      }
      check_loop<Policy>(kept < candidates.size(),
                         "flow below target but no removable job found");
      candidates.resize(kept);
      built_pos.resize(kept);
    }

    // ---- phase found: record it and write its slices ----
    policy.add_phase(result, candidates, speed, rounds, reserved);
    obs::emit(trace, obs::EventKind::kPhaseEnd, labels.phase, phase_index, rounds,
              to_double(speed));
    rounds_per_phase.record(rounds);

    // Per interval: chunks t_kj (flow on (u_k, v_j)) wrapped onto the reserved
    // processors, which are the lowest-numbered free ones (used_j .. used_j+m_j-1).
    for (std::size_t j = 0; j < interval_count; ++j) {
      if (reserved[j] == 0) continue;
      chunks.clear();
      for (std::size_t pos = 0; pos < candidates.size(); ++pos) {
        const std::size_t edge = round.edge_into(built_pos[pos], j);
        if (edge == kNone) continue;
        const T& t = round.net.flow(edge);
        if (positive(t)) chunks.push_back({candidates[pos], t});
      }
      policy.pack(result, j, used[j], reserved[j], speed, chunks);
      used[j] += reserved[j];
    }

    // Drop the scheduled jobs from the remaining set; the candidate mask holds
    // exactly the phase's jobs at this point, giving an O(1) membership test.
    std::erase_if(remaining, [&](std::size_t job) {
      return ActiveBitmap::mask_test(candidate_mask, job);
    });
  }

  result.stats.phases = phases;
  result.stats.counters.set("flow.warm_starts", warm_starts);
  result.stats.counters.set("flow.retracted_units", retracted_units);
  result.stats.counters.set("flow.resume_bfs", resume_bfs);
  const Arena::Stats& arena_stats = scratch->stats();
  result.stats.counters.set("mem.arena_bytes", arena_stats.capacity_bytes);
  result.stats.counters.set("mem.arena_reuses", arena_stats.reuses);
  result.stats.counters.set("mem.fallback_allocs",
                            arena_stats.fallback_allocs - arena_fallback_base);
  obs::emit(trace, obs::EventKind::kCounter, labels.arena, arena_stats.capacity_bytes,
            arena_stats.fallback_allocs - arena_fallback_base,
            static_cast<double>(arena_stats.reuses));
  if (!round_us.empty()) result.stats.histograms[std::string(labels.round_us)] = round_us;
  if (!rounds_per_phase.empty()) {
    result.stats.histograms[std::string(labels.rounds_per_phase)] = rounds_per_phase;
  }
  if (!resume_bfs_hist.empty()) {
    result.stats.histograms[std::string(labels.resume_bfs)] = resume_bfs_hist;
  }
}

/// Runs `body`, which returns an engine result, under the engine's root solve
/// span and wall-time timer, between its kSolveStart and kSolveEnd events. The
/// span opens before the timer starts and closes after the timer is read, so it
/// provably covers stats.wall_seconds (the --report coverage criterion).
template <class Body>
auto run_under_solve_span(const Labels& labels, const Instance& instance,
                          obs::TraceSink* trace, Body body) {
  obs::SpanScope solve_span(trace, labels.solve);
  obs::ScopedTimer timer;
  obs::emit(trace, obs::EventKind::kSolveStart, labels.solve, instance.size(),
            instance.machines());
  auto result = body();
  obs::emit(trace, obs::EventKind::kSolveEnd, labels.solve, result.stats.phases,
            result.stats.flow_computations);
  result.stats.wall_seconds = timer.elapsed_seconds();
  return result;
}

/// Exact arithmetic over Q: the paper's saturation tests hold literally, and
/// each phase is McNaughton-packed into an exact Schedule.
struct ExactPolicy {
  using Num = Q;
  using Result = OptimalResult;
  using Chunk = mpss::Chunk;
  static constexpr const char* kName = "optimal_schedule";
  static constexpr Labels kLabels{
      "optimal.solve",          "optimal.phase",          "optimal.round",
      "optimal.warm_start",     "optimal.lemma4_removal", "optimal.ablated_removal",
      "optimal.arena",          "optimal.intervals",      "optimal.round_us",
      "optimal.rounds_per_phase", "optimal.resume_bfs"};
  /// A phase closed by a resumed flow is re-solved from zero: that split packs
  /// into fewer slices, keeping replies compact (DESIGN.md "Warm-start
  /// invariant").
  static constexpr bool kCanonicalClose = true;

  const Instance& instance;
  IntervalDecomposition intervals{instance.jobs()};
  bool paper_rule = true;

  [[nodiscard]] std::size_t interval_count() const { return intervals.count(); }
  [[nodiscard]] const Q& work(std::size_t job) const { return instance.job(job).work; }
  [[nodiscard]] Q length(std::size_t j) const { return intervals.length(j); }
  [[nodiscard]] ActiveBitmap active() const {
    return make_active_bitmap(instance.jobs(), intervals);
  }

  // Exact flows never overshoot a capacity, so no clamps are needed.
  static void set_capacity(FlowNetwork<Q>& net, std::size_t edge, Q cap) {
    net.set_capacity(edge, std::move(cap));
  }
  static void retract_shared(FlowNetwork<Q>& net, std::size_t edge, const Q& amount) {
    net.retract_flow(edge, amount);
  }
  static void check_retracted(const Q& left) {
    check_loop<ExactPolicy>(left.sign() == 0, "flow retraction left residue");
  }
  [[nodiscard]] bool saturates(const Q& flow, const Q& target) const {
    return flow == target;
  }
  [[nodiscard]] bool sink_has_slack(const FlowNetwork<Q>& net, std::size_t edge) const {
    return !net.saturated(edge);
  }
  [[nodiscard]] bool edge_has_slack(const FlowNetwork<Q>& net, std::size_t edge) const {
    return !net.saturated(edge);
  }

  void add_phase(OptimalResult& result, const std::vector<std::size_t>& jobs,
                 const Q& speed, std::size_t rounds,
                 std::span<const std::size_t> reserved) const {
    check_loop<ExactPolicy>(
        !paper_rule || result.phases.empty() || speed < result.phases.back().speed,
        "phase speeds must strictly decrease");
    for (std::size_t job : jobs) result.job_phase[job] = result.phases.size();
    result.phases.push_back(
        PhaseInfo{jobs, speed, {reserved.begin(), reserved.end()}, rounds});
  }
  void pack(OptimalResult& result, std::size_t j, std::size_t first, std::size_t count,
            const Q& speed, std::span<const Chunk> chunks) const {
    // All sink edges are saturated (F == P), so every reserved interval carries
    // exactly m_j * |I_j| units of processing time.
    check_loop<ExactPolicy>(!chunks.empty(), "reserved interval received no flow");
    mcnaughton_pack(result.schedule, intervals.start(j), intervals.length(j), first,
                    count, speed, chunks);
  }
};

/// IEEE doubles with relative-epsilon acceptance tests. Endpoints and works are
/// converted once; each phase is wrapped onto its machines as FastSlices.
class FastPolicy {
 public:
  using Num = double;
  using Result = FastOptimalResult;
  struct Chunk {
    std::size_t job;
    double duration;
  };
  static constexpr const char* kName = "optimal_schedule_fast";
  static constexpr Labels kLabels{
      "optimal_fast.solve",          "optimal_fast.phase",
      "optimal_fast.round",          "optimal_fast.warm_start",
      "optimal_fast.lemma4_removal", "optimal_fast.ablated_removal",
      "optimal_fast.arena",          "optimal_fast.intervals",
      "optimal_fast.round_us",       "optimal_fast.rounds_per_phase",
      "optimal_fast.resume_bfs"};
  /// Off: the double engine keeps the resumed split and saves the from-zero
  /// flow per phase; nothing pins its slices bit for bit.
  static constexpr bool kCanonicalClose = false;

  FastPolicy(const Instance& instance, double epsilon)
      : instance_(instance), epsilon_(epsilon) {
    // Atomic intervals in double precision: exact points converted, then dedup'd.
    points_.reserve(instance.size() * 2);
    work_.reserve(instance.size());
    for (std::size_t k = 0; k < instance.size(); ++k) {
      const Job& job = instance.job(k);
      const double release = job.release.to_double();
      const double deadline = job.deadline.to_double();
      if (!(release < deadline)) {
        throw std::invalid_argument("optimal_schedule_fast: job " + std::to_string(k) +
                                    "'s window is empty in double precision");
      }
      points_.push_back(release);
      points_.push_back(deadline);
      work_.push_back(job.work.to_double());
    }
    std::sort(points_.begin(), points_.end());
    points_.erase(std::unique(points_.begin(), points_.end()), points_.end());
    if (points_.size() == 1) points_.clear();
  }

  [[nodiscard]] std::size_t interval_count() const {
    return points_.empty() ? 0 : points_.size() - 1;
  }
  [[nodiscard]] double work(std::size_t job) const { return work_[job]; }
  [[nodiscard]] double start(std::size_t j) const { return points_[j]; }
  [[nodiscard]] double length(std::size_t j) const { return points_[j + 1] - points_[j]; }
  /// Containment padded by 1e-15: converted endpoints can drift by an ulp.
  [[nodiscard]] ActiveBitmap active() const {
    ActiveBitmap bits(interval_count(), instance_.size());
    for (std::size_t k = 0; k < instance_.size(); ++k) {
      double release = instance_.job(k).release.to_double();
      double deadline = instance_.job(k).deadline.to_double();
      for (std::size_t j = 0; j < interval_count(); ++j) {
        if (release <= start(j) + 1e-15 && points_[j + 1] <= deadline + 1e-15) {
          bits.set(j, k);
        }
      }
    }
    return bits;
  }

  // Clamps absorbing the ulp-level drift between a job's edge flows and their
  // sum: a capacity never drops below the carried flow, and a retraction on a
  // shared source/sink edge never exceeds it (a sub-epsilon leftover stays,
  // inert).
  static void set_capacity(FlowNetwork<double>& net, std::size_t edge, double cap) {
    net.set_capacity(edge, std::max(cap, net.flow(edge)));
  }
  static void retract_shared(FlowNetwork<double>& net, std::size_t edge, double amount) {
    net.retract_flow(edge, std::min(amount, net.flow(edge)));
  }
  static void check_retracted(double /*left*/) {}
  [[nodiscard]] bool saturates(double flow, double target) const {
    return flow >= target * (1.0 - epsilon_);
  }
  [[nodiscard]] bool sink_has_slack(const FlowNetwork<double>& net,
                                    std::size_t edge) const {
    double cap = net.capacity(edge);
    return cap - net.flow(edge) > epsilon_ * (1.0 + cap);
  }
  [[nodiscard]] bool edge_has_slack(const FlowNetwork<double>& net,
                                    std::size_t edge) const {
    return net.flow(edge) < net.capacity(edge) * (1.0 - epsilon_);
  }

  void add_phase(FastOptimalResult& result, const std::vector<std::size_t>& jobs,
                 double speed, std::size_t /*rounds*/,
                 std::span<const std::size_t> /*reserved*/) const {
    for (std::size_t job : jobs) result.job_phase[job] = result.phase_speeds.size();
    result.phase_speeds.push_back(speed);
  }
  /// McNaughton's wrap in doubles over machines first .. first+count-1. The
  /// wrap stops at the last reserved machine: whatever is left there is below
  /// the wrap's own 1e-12 rounding.
  void pack(FastOptimalResult& result, std::size_t j, std::size_t first,
            std::size_t count, double speed, std::span<const Chunk> chunks) const {
    const double len = length(j);
    std::size_t machine = first;
    double offset = 0.0;
    for (const Chunk& chunk : chunks) {
      double duration = std::min(chunk.duration, len);
      while (duration > epsilon_ * len && machine < first + count) {
        double available = len - offset;
        if (available <= 1e-12 * len) {
          // Sub-rounding remainder of the machine window: move on before it
          // collapses into a zero-length slice (ulp of the absolute time can
          // exceed the remainder).
          ++machine;
          offset = 0.0;
          continue;
        }
        double piece = std::min(duration, available);
        double begin = start(j) + offset;
        double finish = start(j) + std::min(offset + piece, len);
        if (begin < finish) {
          result.schedule.machines[machine].push_back(
              FastSlice{begin, finish, speed, chunk.job});
        }
        offset += piece;
        duration -= piece;
        if (offset >= len * (1.0 - 1e-12)) {
          ++machine;
          offset = 0.0;
        }
      }
    }
  }

 private:
  const Instance& instance_;
  double epsilon_;
  std::vector<double> points_;
  std::vector<double> work_;
};

/// One run of the exact phase loop with `hint` (empty: the plain loop).
OptimalResult run_exact(const Instance& instance, std::span<const std::size_t> hint,
                        const OptimalOptions& options, obs::TraceSink* trace) {
  const ExactPolicy policy{
      .instance = instance,
      .paper_rule = options.removal_policy == OptimalOptions::RemovalPolicy::kPaperRule};
  OptimalResult result{Schedule(instance.machines()), policy.intervals, {}, {},
                       std::vector<std::size_t>(instance.size(), OptimalResult::kNoPhase)};
  run_phases(instance, policy, result, options, hint, trace);
  return result;
}

/// The plain loop in place of a guided run that could not be used.
OptimalResult run_unguided(const Instance& instance, const OptimalOptions& options,
                           obs::TraceSink* trace) {
  OptimalResult result = run_exact(instance, {}, options, trace);
  result.stats.counters.set("optimal.guide_fallbacks", 1);
  return result;
}

/// The hinted run if the certificate proves it optimal, else the plain loop. A
/// hint that misses a job of some J_i either trips a loop invariant
/// (InternalError) or closes a wrong phase, which the certificate rejects.
OptimalResult run_hinted(const Instance& instance, std::span<const std::size_t> hint,
                         const OptimalOptions& options, obs::TraceSink* trace) {
  try {
    OptimalResult result = run_exact(instance, hint, options, trace);
    bool certified = false;
    {
      obs::SpanScope certify_span(trace, "optimal.certify");
      certified = !certify_optimal(instance, result.schedule).has_value();
    }
    if (certified) {
      result.stats.counters.set("optimal.guided_phases", result.phases.size());
      return result;
    }
  } catch (const InternalError&) {
    // Falls through to the plain loop, which does not read the hint.
  }
  return run_unguided(instance, options, trace);
}

}  // namespace

Q OptimalResult::speed_of_job(std::size_t job) const {
  if (job < job_phase.size()) {
    std::size_t phase = job_phase[job];
    return phase == kNoPhase ? Q(0) : phases[phase].speed;
  }
  // Indices past the instance (or hand-built results without the index): scan.
  for (const PhaseInfo& phase : phases) {
    if (std::find(phase.jobs.begin(), phase.jobs.end(), job) != phase.jobs.end()) {
      return phase.speed;
    }
  }
  return Q(0);  // zero-work jobs belong to no phase
}

OptimalResult optimal_schedule(const Instance& instance) {
  return optimal_schedule(instance, OptimalOptions{});
}

OptimalResult optimal_schedule(const Instance& instance, const OptimalOptions& options,
                               obs::TraceSink* trace) {
  return run_under_solve_span(ExactPolicy::kLabels, instance, trace, [&] {
    if (options.removal_policy != OptimalOptions::RemovalPolicy::kPaperRule) {
      return run_exact(instance, {}, options, trace);
    }
    FastOptimalResult guide;
    try {
      guide = optimal_schedule_fast(instance, {.cancel = options.cancel}, trace);
    } catch (const CancelledError&) {
      throw;
    } catch (const std::exception&) {
      // The guide is an optimization: an instance it cannot take (say, a
      // window that vanishes in doubles) gets the plain loop.
      return run_unguided(instance, options, trace);
    }
    OptimalResult result = run_hinted(instance, guide.job_phase, options, trace);
    // The guide's rounds beside the exact loop's own, which the stats fields
    // keep counting alone.
    result.stats.counters.set("optimal.guide_flow_computations",
                              guide.stats.flow_computations);
    result.stats.counters.set("optimal.guide_candidate_removals",
                              guide.stats.candidate_removals);
    return result;
  });
}

OptimalResult optimal_schedule_hinted(const Instance& instance,
                                      std::span<const std::size_t> hint,
                                      const OptimalOptions& options,
                                      obs::TraceSink* trace) {
  check_arg(hint.empty() || hint.size() == instance.size(),
            "optimal_schedule_hinted: the hint needs one phase index per job");
  check_arg(options.removal_policy == OptimalOptions::RemovalPolicy::kPaperRule,
            "optimal_schedule_hinted: the certificate needs the paper's removal rule");
  return run_under_solve_span(ExactPolicy::kLabels, instance, trace,
                              [&] { return run_hinted(instance, hint, options, trace); });
}

FastOptimalResult optimal_schedule_fast(const Instance& instance,
                                        const FastOptimalOptions& options,
                                        obs::TraceSink* trace) {
  check_arg(options.epsilon > 0.0 && options.epsilon < 0.1,
            "optimal_schedule_fast: bad epsilon");
  const FastPolicy policy(instance, options.epsilon);
  return run_under_solve_span(FastPolicy::kLabels, instance, trace, [&] {
    FastOptimalResult result;
    result.schedule.machines.resize(instance.machines());
    result.job_phase.assign(instance.size(), FastOptimalResult::kNoPhase);
    run_phases(instance, policy, result, OptimalOptions{.cancel = options.cancel}, {},
               trace);
    return result;
  });
}

double optimal_energy(const Instance& instance, const PowerFunction& p) {
  return optimal_schedule(instance).schedule.energy(p);
}

}  // namespace mpss
