// mpss_fuzz: bug-flushing sweeps over the wire decoders and the solve engines
// (S48). Three modes, each deterministic under --seed:
//
//   --frames       random and mutated byte streams into read_frame and the
//                  protocol decoders: every input must parse, be cleanly
//                  rejected (FrameError / ProtocolError), or hit clean EOF --
//                  never crash, hang, or leak another exception type.
//                  Mutated valid replies (exact, fast, schedule-less and
//                  error) must decode to a ProtocolError or to a response
//                  that re-encodes and decodes to itself, bit for bit.
//   --instances    mutated instance JSON into instance_from_json: success or
//                  std::invalid_argument, nothing else. Includes a fixed
//                  hostile corpus (1e300 / 1e309 / deep nesting / huge digit
//                  strings) that once triggered undefined casts.
//   --differential random instances through exact vs fast vs LP: the exact
//                  schedule must pass certify_optimal and be bit-identical to
//                  the plain phase loop's (optimal_schedule_hinted with an
//                  all-zero hint), fast must agree with exact to 1e-6
//                  relative, LP must never beat the optimum by more than 1e-6,
//                  and returned schedules must satisfy the instance
//                  (violations() == 0). A guided solve that falls back to the
//                  plain loop is a finding too; prints the fallback count.
//
// With no mode flags, all three run. Exit codes: 0 clean, 1 findings, 2 usage.
//
//   mpss_fuzz --frames --instances --differential --runs=5000 --max-seconds=240

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpss/core/certify.hpp"
#include "mpss/core/instance_json.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/net/framing.hpp"
#include "mpss/net/protocol.hpp"
#include "mpss/solve.hpp"
#include "mpss/util/cli.hpp"
#include "mpss/util/random.hpp"
#include "mpss/workload/generators.hpp"

namespace {

using mpss::Instance;
using mpss::Xoshiro256;

struct Findings {
  int count = 0;

  void report(const std::string& mode, std::uint64_t seed,
              const std::string& what) {
    ++count;
    std::fprintf(stderr, "FINDING [%s] seed=%llu: %s\n", mode.c_str(),
                 static_cast<unsigned long long>(seed), what.c_str());
  }
};

/// Wall-clock budget shared by all modes; 0 = unlimited.
struct WallCap {
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  std::int64_t max_seconds = 0;

  [[nodiscard]] bool exhausted() const {
    if (max_seconds <= 0) return false;
    return std::chrono::steady_clock::now() - start >=
           std::chrono::seconds(max_seconds);
  }
};

/// Flip/insert/delete a few bytes of `text`, seeded. Mutations are small so
/// most outputs stay near-valid -- the interesting region for parsers.
std::string mutate(std::string text, Xoshiro256& rng) {
  if (text.empty()) return text;
  const std::size_t edits = 1 + rng.below(4);
  for (std::size_t edit = 0; edit < edits; ++edit) {
    const std::size_t position = rng.below(text.size());
    switch (rng.below(3)) {
      case 0:  // flip one byte to a random printable-or-not value
        text[position] = static_cast<char>(rng.below(256));
        break;
      case 1:  // insert a byte (structural chars are overrepresented on purpose)
        text.insert(position, 1, "{}[]\",:0123456789eE.-"[rng.below(21)]);
        break;
      default:  // delete a byte
        text.erase(position, 1);
        break;
    }
    if (text.empty()) break;
  }
  return text;
}

/// A syntactically valid request to mutate from, varied by seed.
std::string seed_request_json(Xoshiro256& rng) {
  mpss::net::Request request;
  request.id = rng.below(1000);
  switch (rng.below(4)) {
    case 0: request.verb = mpss::net::Verb::kHealth; break;
    case 1: request.verb = mpss::net::Verb::kStats; break;
    case 2: request.verb = mpss::net::Verb::kMetrics; break;
    default: {
      request.verb = mpss::net::Verb::kSolve;
      mpss::UniformWorkload workload;
      workload.jobs = 1 + rng.below(4);
      workload.machines = 1 + rng.below(3);
      workload.horizon = 12;
      request.instances.push_back(mpss::generate_uniform(workload, rng()));
      request.priority = static_cast<int>(rng.below(5));
      request.deadline_ms = static_cast<std::int64_t>(rng.below(1000));
      break;
    }
  }
  return encode_request(request);
}

/// A valid reply to mutate from, varied by seed: an exact, a fast, a
/// schedule-less (invalid options) or an error reply.
std::string seed_reply_json(Xoshiro256& rng) {
  const std::uint64_t id = rng.below(1000);
  const std::uint64_t shape = rng.below(4);
  if (shape == 3) {
    const auto code = static_cast<mpss::net::ErrorCode>(rng.below(7));
    return mpss::net::encode_error_response(id, code, "no \"room\"\n\x01 left");
  }
  mpss::UniformWorkload workload;
  workload.jobs = 1 + rng.below(4);
  workload.machines = 1 + rng.below(3);
  workload.horizon = 12;
  const Instance instance = mpss::generate_uniform(workload, rng());
  mpss::SolveOptions options;
  options.engine = shape == 1 ? mpss::Engine::kFast : mpss::Engine::kExact;
  if (shape == 2) {
    options.engine = mpss::Engine::kLp;
    options.lp_grid = 1;  // invalid: the result carries a detail, no schedule
  }
  const mpss::SolveResult result = mpss::solve(instance, options);
  return mpss::net::encode_results_response(id, std::span(&result, 1));
}

/// Whether two exact schedules hold the same slices on every machine.
bool same_schedule(const mpss::Schedule& a, const mpss::Schedule& b) {
  if (a.machines() != b.machines()) return false;
  for (std::size_t machine = 0; machine < a.machines(); ++machine) {
    if (!std::ranges::equal(a.machine(machine), b.machine(machine))) return false;
  }
  return true;
}

/// Whether two results hold the same status, detail, energy bits and slices.
bool same_result(const mpss::SolveResult& a, const mpss::SolveResult& b) {
  auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  if (a.status != b.status || a.error_detail != b.error_detail ||
      bits(a.energy) != bits(b.energy) || a.schedule.index() != b.schedule.index()) {
    return false;
  }
  if (const mpss::Schedule* x = a.exact_schedule()) {
    if (!same_schedule(*x, *b.exact_schedule())) return false;
  }
  if (const mpss::FastSchedule* x = a.fast_schedule()) {
    const mpss::FastSchedule& y = *b.fast_schedule();
    auto same_slice = [&](const mpss::FastSlice& p, const mpss::FastSlice& q) {
      return bits(p.start) == bits(q.start) && bits(p.end) == bits(q.end) &&
             bits(p.speed) == bits(q.speed) && p.job == q.job;
    };
    if (x->machines.size() != y.machines.size()) return false;
    for (std::size_t machine = 0; machine < x->machines.size(); ++machine) {
      if (!std::ranges::equal(x->machines[machine], y.machines[machine], same_slice)) {
        return false;
      }
    }
  }
  return true;
}

/// Why a decoded response does not survive re-encoding and decoding, or
/// empty when it does.
std::string reencode_mismatch(const mpss::net::Response& response) {
  const std::string again =
      response.ok ? mpss::net::encode_results_response(response.id, response.results)
                  : mpss::net::encode_error_response(response.id, response.code,
                                                     response.detail);
  const mpss::net::Response twice = mpss::net::decode_response(again);
  if (twice.ok != response.ok || twice.code != response.code ||
      twice.detail != response.detail ||
      twice.results.size() != response.results.size()) {
    return "re-encoded response changed shape: " + again;
  }
  for (std::size_t i = 0; i < response.results.size(); ++i) {
    if (!same_result(response.results[i], twice.results[i])) {
      return "re-encoded result " + std::to_string(i) + " changed: " + again;
    }
  }
  return "";
}

/// Feed `bytes` through a socketpair into read_frame (writer closed first, so
/// truncation is always observable). Any exception other than FrameError is a
/// finding; so is a hang, which the frame deadline converts into kTimeout.
bool stream_is_handled(const std::string& bytes, std::string& error) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    error = "socketpair failed";
    return false;
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::send(fds[1], bytes.data() + written, bytes.size() - written,
                       MSG_NOSIGNAL);
    if (n <= 0) break;
    written += static_cast<size_t>(n);
  }
  ::close(fds[1]);
  bool ok = true;
  try {
    std::string payload;
    // Drain every frame in the stream, not just the first.
    while (mpss::net::read_frame(fds[0], payload)) {
    }
  } catch (const mpss::net::FrameError&) {
    // typed rejection: expected
  } catch (const std::exception& unexpected) {
    error = std::string("read_frame leaked ") + unexpected.what();
    ok = false;
  }
  ::close(fds[0]);
  return ok;
}

int run_frames(std::int64_t runs, std::uint64_t seed, Findings& findings,
               const WallCap& cap) {
  std::int64_t done = 0;
  for (; done < runs && !cap.exhausted(); ++done) {
    const std::uint64_t case_seed = seed + static_cast<std::uint64_t>(done);
    Xoshiro256 rng(case_seed);
    std::string error;

    // 1. Raw bytes: random length, random content, sometimes a plausible
    //    big-endian prefix so the payload branch gets exercised too.
    std::string raw(rng.below(200), '\0');
    for (char& byte : raw) byte = static_cast<char>(rng.below(256));
    if (raw.size() >= 4 && rng.bernoulli(0.5)) {
      const auto promised = static_cast<std::uint32_t>(rng.below(300));
      raw[0] = static_cast<char>(promised >> 24);
      raw[1] = static_cast<char>(promised >> 16);
      raw[2] = static_cast<char>(promised >> 8);
      raw[3] = static_cast<char>(promised);
    }
    if (!stream_is_handled(raw, error)) {
      findings.report("frames", case_seed, error);
    }

    // 2. Mutated valid request JSON into decode_request: ProtocolError or
    //    success only.
    const std::string mutated = mutate(seed_request_json(rng), rng);
    try {
      (void)mpss::net::decode_request(mutated);
    } catch (const mpss::net::ProtocolError&) {
    } catch (const std::exception& unexpected) {
      findings.report("frames", case_seed,
                      std::string("decode_request leaked ") +
                          unexpected.what() + " on: " + mutated);
    }

    // 3. Same stream through decode_response (a hostile server must not be
    //    able to crash the client either).
    try {
      (void)mpss::net::decode_response(mutated);
    } catch (const mpss::net::ProtocolError&) {
    } catch (const std::exception& unexpected) {
      findings.report("frames", case_seed,
                      std::string("decode_response leaked ") +
                          unexpected.what() + " on: " + mutated);
    }

    // 4. Mutated valid replies into decode_response: ProtocolError, or a
    //    response whose results re-encode and decode to themselves.
    const std::string reply = mutate(seed_reply_json(rng), rng);
    std::optional<mpss::net::Response> response;
    try {
      response = mpss::net::decode_response(reply);
    } catch (const mpss::net::ProtocolError&) {
    } catch (const std::exception& unexpected) {
      findings.report("frames", case_seed,
                      std::string("decode_response leaked ") +
                          unexpected.what() + " on reply: " + reply);
    }
    if (response) {
      try {
        const std::string mismatch = reencode_mismatch(*response);
        if (!mismatch.empty()) {
          findings.report("frames", case_seed, mismatch + " from reply: " + reply);
        }
      } catch (const std::exception& error) {
        findings.report("frames", case_seed,
                        std::string("decoded reply does not re-encode: ") +
                            error.what() + " on reply: " + reply);
      }
    }
  }
  std::printf("frames: %lld cases\n", static_cast<long long>(done));
  return findings.count;
}

int run_instances(std::int64_t runs, std::uint64_t seed, Findings& findings,
                  const WallCap& cap) {
  // Fixed hostile corpus first: documents that historically reached undefined
  // casts or stress the parser's limits. Must reject with invalid_argument.
  const std::vector<std::string> hostile = {
      R"({"mpss_instance":1,"machines":1e300,"jobs":[]})",
      R"({"mpss_instance":1,"machines":1e309,"jobs":[]})",
      R"({"mpss_instance":1,"machines":2.5,"jobs":[]})",
      R"({"mpss_instance":1,"machines":-1e300,"jobs":[]})",
      R"({"mpss_instance":1,"machines":2,"jobs":[[")" + std::string(4096, '9') +
          R"(","4","2"]]})",
      R"({"mpss_instance":1,"machines":2,"jobs":[["1","4","1/0"]]})",
      std::string(512, '[') + std::string(512, ']'),
  };
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    try {
      (void)mpss::instance_from_json(hostile[i]);
      // Parsing succeeding is fine only for inputs that are actually valid;
      // every corpus entry above is malformed, so success is a finding.
      findings.report("instances", i, "hostile corpus entry accepted: " +
                                          hostile[i].substr(0, 80));
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& unexpected) {
      findings.report("instances", i,
                      std::string("instance_from_json leaked ") +
                          unexpected.what() + " on corpus entry " +
                          std::to_string(i));
    }
  }

  std::int64_t done = 0;
  for (; done < runs && !cap.exhausted(); ++done) {
    const std::uint64_t case_seed = seed + static_cast<std::uint64_t>(done);
    Xoshiro256 rng(case_seed);
    mpss::UniformWorkload workload;
    workload.jobs = 1 + rng.below(6);
    workload.machines = 1 + rng.below(4);
    workload.horizon = 16;
    const std::string valid =
        mpss::instance_to_json(mpss::generate_uniform(workload, rng()));

    // Round trip of the unmutated document must succeed.
    try {
      (void)mpss::instance_from_json(valid);
    } catch (const std::exception& unexpected) {
      findings.report("instances", case_seed,
                      std::string("round trip rejected its own output: ") +
                          unexpected.what());
      continue;
    }

    const std::string mutated = mutate(valid, rng);
    try {
      (void)mpss::instance_from_json(mutated);
    } catch (const std::invalid_argument&) {
    } catch (const std::exception& unexpected) {
      findings.report("instances", case_seed,
                      std::string("instance_from_json leaked ") +
                          unexpected.what() + " on: " + mutated);
    }
  }
  std::printf("instances: %lld cases (+%zu hostile corpus entries)\n",
              static_cast<long long>(done), hostile.size());
  return findings.count;
}

int run_differential(std::int64_t runs, std::uint64_t seed, Findings& findings,
                     const WallCap& cap) {
  std::int64_t done = 0;
  std::uint64_t guide_fallbacks = 0;
  for (; done < runs && !cap.exhausted(); ++done) {
    const std::uint64_t case_seed = seed + static_cast<std::uint64_t>(done);
    Xoshiro256 rng(case_seed);
    Instance instance = [&]() -> Instance {
      switch (rng.below(4)) {
        case 0: {
          mpss::UniformWorkload w;
          w.jobs = 2 + rng.below(10);
          w.machines = 1 + rng.below(4);
          w.horizon = 24;
          w.max_window = 8;
          w.max_work = 6;
          return mpss::generate_uniform(w, rng());
        }
        case 1: {
          mpss::BurstyWorkload w;
          w.bursts = 1 + rng.below(3);
          w.jobs_per_burst = 2 + rng.below(4);
          w.machines = 1 + rng.below(4);
          return mpss::generate_bursty(w, rng());
        }
        case 2: {
          mpss::LaminarWorkload w;
          w.jobs = 2 + rng.below(10);
          w.machines = 1 + rng.below(4);
          w.depth = 3;
          return mpss::generate_laminar(w, rng());
        }
        default: {
          mpss::AgreeableWorkload w;
          w.jobs = 2 + rng.below(10);
          w.machines = 1 + rng.below(4);
          w.horizon = 24;
          return mpss::generate_agreeable(w, rng());
        }
      }
    }();

    mpss::SolveOptions exact_options;
    exact_options.engine = mpss::Engine::kExact;
    mpss::SolveResult exact = mpss::solve(instance, exact_options);
    if (!exact.ok()) {
      findings.report("differential", case_seed,
                      "exact solve failed: " + exact.error_detail);
      continue;
    }
    if (exact.violations(instance) != 0) {
      findings.report("differential", case_seed,
                      "exact schedule violates its instance");
    }
    if (auto failure = mpss::certify_optimal(instance, *exact.exact_schedule())) {
      findings.report("differential", case_seed,
                      "exact schedule fails the optimality certificate: " + *failure);
    }
    // The guided solve above against the plain loop (all-zero hint).
    const mpss::OptimalResult plain = mpss::optimal_schedule_hinted(
        instance, std::vector<std::size_t>(instance.size(), 0));
    guide_fallbacks += exact.stats.counters.value("optimal.guide_fallbacks") +
                       plain.stats.counters.value("optimal.guide_fallbacks");
    if (exact.stats.counters.value("optimal.guide_fallbacks") != 0) {
      // The result is still the optimum, but the solve paid for the plain
      // loop on top of the guide and the hinted try.
      findings.report("differential", case_seed,
                      "guided exact solve fell back to the plain phase loop");
    }
    if (!same_schedule(*exact.exact_schedule(), plain.schedule)) {
      findings.report("differential", case_seed,
                      "guided exact schedule differs from the plain phase loop's");
    }

    mpss::SolveOptions fast_options;
    fast_options.engine = mpss::Engine::kFast;
    mpss::SolveResult fast = mpss::solve(instance, fast_options);
    if (!fast.ok()) {
      findings.report("differential", case_seed,
                      "fast solve failed: " + fast.error_detail);
    } else {
      const double gap = std::fabs(fast.energy - exact.energy);
      if (gap > 1e-6 * std::max(1.0, exact.energy)) {
        findings.report("differential", case_seed,
                        "fast disagrees with exact: fast=" +
                            std::to_string(fast.energy) +
                            " exact=" + std::to_string(exact.energy));
      }
      if (fast.violations(instance) != 0) {
        findings.report("differential", case_seed,
                        "fast schedule violates its instance");
      }
    }

    mpss::SolveOptions lp_options;
    lp_options.engine = mpss::Engine::kLp;
    lp_options.lp_grid = 4;
    mpss::SolveResult lp = mpss::solve(instance, lp_options);
    if (lp.ok() && lp.energy < exact.energy - 1e-6) {
      // The LP is a relaxation-free feasible schedule on a coarser grid, so
      // beating the exact optimum means one of the two is wrong.
      findings.report("differential", case_seed,
                      "lp beat the exact optimum: lp=" +
                          std::to_string(lp.energy) +
                          " exact=" + std::to_string(exact.energy));
    }
  }
  std::printf("differential: %lld cases, %llu guide fallbacks\n",
              static_cast<long long>(done),
              static_cast<unsigned long long>(guide_fallbacks));
  return findings.count;
}

}  // namespace

int main(int argc, char** argv) {
  std::int64_t runs = 0;
  std::uint64_t seed = 0;
  bool frames = false, instances = false, differential = false;
  std::int64_t max_seconds = 0;
  try {
    mpss::CliArgs args(argc, argv,
                       {"frames", "instances", "differential", "runs", "seed",
                        "max-seconds", "help"});
    if (args.get_bool("help", false)) {
      std::printf(
          "usage: mpss_fuzz [--frames] [--instances] [--differential]\n"
          "                 [--runs=N] [--seed=S] [--max-seconds=T]\n");
      return 0;
    }
    runs = args.get_int("runs", 1000);
    seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    frames = args.get_bool("frames", false);
    instances = args.get_bool("instances", false);
    differential = args.get_bool("differential", false);
    max_seconds = args.get_int("max-seconds", 0);
    if (runs <= 0) throw std::invalid_argument("--runs must be positive");
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mpss_fuzz: %s\n", error.what());
    return 2;
  }
  if (!frames && !instances && !differential) {
    frames = instances = differential = true;
  }

  Findings findings;
  WallCap cap;
  cap.max_seconds = max_seconds;
  if (frames) run_frames(runs, seed, findings, cap);
  if (instances) run_instances(runs, seed, findings, cap);
  if (differential) run_differential(runs, seed, findings, cap);

  if (findings.count > 0) {
    std::fprintf(stderr, "mpss_fuzz: %d finding(s)\n", findings.count);
    return 1;
  }
  std::printf("mpss_fuzz: clean\n");
  return 0;
}
