#include "mpss/solve.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "mpss/lp/lp_baseline.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/online/oa.hpp"
#include "mpss/util/numeric_counters.hpp"

namespace mpss {
namespace {

/// Resolves the power function for one solve; precedence, highest first:
/// an explicit SolveOptions::power override, then the instance's PowerSpec.
/// `owned` keeps a spec instantiation alive for the call.
const PowerFunction& effective_power(const Instance& instance,
                                     const SolveOptions& options,
                                     std::unique_ptr<PowerFunction>& owned) {
  static const AlphaPower kCube(3.0);
  if (options.power != nullptr) return *options.power;
  if (instance.power().is_default()) return kCube;  // no allocation on the default
  owned = instance.power().instantiate();
  return *owned;
}

/// The one place sink precedence is decided (documented on SolveOptions::trace):
/// facade knob > process-wide Registry default. Engines get the resolved sink
/// explicitly, so their own fallback never runs on this path.
obs::TraceSink* resolve_trace_sink(const SolveOptions& options) {
  if (options.trace != nullptr) return options.trace;
  return obs::Registry::global().sink();
}

SolveResult run_engine(const Instance& instance, const SolveOptions& options) {
  std::unique_ptr<PowerFunction> owned_power;
  const PowerFunction& p = effective_power(instance, options, owned_power);
  obs::TraceSink* sink = resolve_trace_sink(options);
  SolveResult result;

  // Catch a token that fired before dispatch (queue wait, cancelled batch), so
  // even the engines without internal checkpoints (OA, AVR, LP) honour it.
  poll_cancellation(options.cancel);

  switch (options.engine) {
    case Engine::kExact: {
      OptimalResult r =
          optimal_schedule(instance, OptimalOptions{.cancel = options.cancel}, sink);
      result.energy = r.schedule.energy(p);
      result.stats = std::move(r.stats);
      result.schedule = std::move(r.schedule);
      return result;
    }
    case Engine::kFast: {
      FastOptimalOptions fast;
      fast.epsilon = options.fast_epsilon;
      fast.cancel = options.cancel;
      FastOptimalResult r = optimal_schedule_fast(instance, fast, sink);
      result.energy = r.schedule.energy(p);
      result.stats = std::move(r.stats);
      result.schedule = std::move(r.schedule);
      return result;
    }
    case Engine::kOa: {
      OnlineRunResult r = oa_schedule(instance, sink);
      result.energy = r.schedule.energy(p);
      result.stats = std::move(r.stats);
      result.schedule = std::move(r.schedule);
      return result;
    }
    case Engine::kAvr: {
      AvrResult r = avr_schedule(instance, AvrOptions{}, sink);
      result.energy = r.schedule.energy(p);
      result.stats = std::move(r.stats);
      result.schedule = std::move(r.schedule);
      return result;
    }
    case Engine::kLp: {
      LpBaselineResult r = lp_baseline(instance, p, options.lp_grid,
                                       options.lp_max_speed_hint, sink);
      result.stats = std::move(r.stats);
      switch (r.status) {
        case LpSolution::Status::kOptimal:
          result.energy = r.energy;
          break;
        case LpSolution::Status::kInfeasible:
          result.status = SolveStatus::kInfeasible;
          result.error_detail = "lp_baseline: speed grid too low for the instance";
          break;
        case LpSolution::Status::kUnbounded:
          result.status = SolveStatus::kUnbounded;
          result.error_detail = "lp_baseline: LP reported unbounded";
          break;
      }
      return result;
    }
  }
  throw std::invalid_argument("solve: unknown engine");
}

}  // namespace

const char* engine_name(Engine engine) {
  switch (engine) {
    case Engine::kExact: return "exact";
    case Engine::kFast: return "fast";
    case Engine::kOa: return "oa";
    case Engine::kAvr: return "avr";
    case Engine::kLp: return "lp";
  }
  return "unknown";
}

std::optional<Engine> engine_from_name(std::string_view name) {
  if (name == "exact" || name == "opt") return Engine::kExact;
  if (name == "fast") return Engine::kFast;
  if (name == "oa") return Engine::kOa;
  if (name == "avr") return Engine::kAvr;
  if (name == "lp") return Engine::kLp;
  return std::nullopt;
}

const char* solve_status_name(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOk: return "ok";
    case SolveStatus::kInvalidInstance: return "invalid_instance";
    case SolveStatus::kInvalidOptions: return "invalid_options";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kCancelled: return "cancelled";
    case SolveStatus::kDeadlineExceeded: return "deadline_exceeded";
  }
  return "unknown";
}

std::optional<SolveStatus> solve_status_from_name(std::string_view name) {
  if (name == "ok") return SolveStatus::kOk;
  if (name == "invalid_instance") return SolveStatus::kInvalidInstance;
  if (name == "invalid_options") return SolveStatus::kInvalidOptions;
  if (name == "infeasible") return SolveStatus::kInfeasible;
  if (name == "unbounded") return SolveStatus::kUnbounded;
  if (name == "cancelled") return SolveStatus::kCancelled;
  if (name == "deadline_exceeded") return SolveStatus::kDeadlineExceeded;
  return std::nullopt;
}

std::optional<std::string> SolveOptions::validate() const {
  if (lp_grid < 2) {
    return "SolveOptions: lp_grid must be >= 2 (got " + std::to_string(lp_grid) +
           ")";
  }
  if (!(fast_epsilon > 0.0)) {
    return "SolveOptions: fast_epsilon must be positive (got " +
           std::to_string(fast_epsilon) + ")";
  }
  if (lp_max_speed_hint < 0.0) {
    return "SolveOptions: lp_max_speed_hint must be >= 0 (got " +
           std::to_string(lp_max_speed_hint) + ")";
  }
  return std::nullopt;
}

std::size_t SolveResult::violations(const Instance& instance,
                                    double fast_tolerance) const {
  if (const Schedule* exact = exact_schedule())
    return count_violations(instance, *exact);
  if (const FastSchedule* fast = fast_schedule())
    return count_fast_violations(instance, *fast, fast_tolerance);
  return 0;
}

SolveResult solve(const Instance& instance, const SolveOptions& options) {
  // Delta the numeric-substrate counters across the engine run so each result
  // reports how well the BigInt small path served this solve, then publish the
  // same deltas process-wide.
  const NumericCounters before = numeric_counters();
  auto finish = [&](SolveResult result) {
    const NumericCounters& after = numeric_counters();
    std::uint64_t small_hits = after.bigint_small_hits - before.bigint_small_hits;
    std::uint64_t promotions = after.bigint_promotions - before.bigint_promotions;
    std::uint64_t norm_small = after.rational_norm_small - before.rational_norm_small;
    if (small_hits != 0) result.stats.counters.add("bigint.small_hits", small_hits);
    if (promotions != 0) result.stats.counters.add("bigint.promotions", promotions);
    if (norm_small != 0) result.stats.counters.add("rational.norm_small", norm_small);
    publish_numeric_counters();
    // Publish the warm-start and guide telemetry of the offline engines
    // process-wide, mirroring the numeric counters above (process dashboards
    // and /metrics read Registry).
    for (const auto& [name, value] : result.stats.counters.items()) {
      if (value != 0 && (name.starts_with("flow.") || name.starts_with("optimal.guide"))) {
        obs::Registry::global().add(name, value);
      }
    }
    // Same treatment for the per-solve distributions: fold them into the
    // Registry's global histograms so dashboards see cross-solve aggregates.
    for (const auto& [name, data] : result.stats.histograms) {
      if (data.count != 0) obs::Registry::global().histogram(name).merge(data);
    }
    return result;
  };
  if (std::optional<std::string> problem = options.validate()) {
    SolveResult result;
    result.status = SolveStatus::kInvalidOptions;
    result.error_detail = std::move(*problem);
    return finish(std::move(result));
  }
  try {
    return finish(run_engine(instance, options));
  } catch (const CancelledError& error) {
    // A fired CancelToken is an expected outcome (deadline pressure, a batch
    // torn down early), not an input mistake -- it gets its own status pair.
    SolveResult result;
    result.status = error.deadline_exceeded() ? SolveStatus::kDeadlineExceeded
                                              : SolveStatus::kCancelled;
    result.error_detail = error.what();
    return finish(std::move(result));
  } catch (const std::invalid_argument& error) {
    // Caller errors (check_arg across the engines) become a status; an
    // InternalError stays an exception -- it marks a library bug.
    SolveResult result;
    result.status = SolveStatus::kInvalidInstance;
    result.error_detail = error.what();
    return finish(std::move(result));
  }
}

}  // namespace mpss
