// The network layer (S45): framing robustness, protocol codec fidelity, and
// the solve daemon's end-to-end contracts -- loopback results bit-identical to
// the in-process facade, graceful drain resolving every accepted request, and
// cancellation of outstanding work when a client disconnects.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fd_limit.hpp"
#include "mpss/core/instance_json.hpp"
#include "mpss/net/client.hpp"
#include "mpss/net/framing.hpp"
#include "mpss/net/protocol.hpp"
#include "mpss/net/server.hpp"
#include "mpss/obs/registry.hpp"
#include "mpss/obs/trace.hpp"
#include "mpss/util/json.hpp"
#include "mpss/solve.hpp"
#include "mpss/util/random.hpp"
#include "mpss/workload/generators.hpp"

namespace mpss::net {
namespace {

Instance small_instance() {
  return Instance({Job{Q(0), Q(8), Q(6)}, Job{Q(2), Q(4), Q(6)},
                   Job{Q(2), Q(4), Q(4)}},
                  2);
}

Instance fractional_instance() {
  return Instance({Job{Q(0), Q(1, 2), Q(2, 3)}, Job{Q(1, 3), Q(5, 6), Q(1, 7)},
                   Job{Q(1, 4), Q(2), Q(3, 2)}, Job{Q(0), Q(2), Q(1)}},
                  2);
}

Instance heavy_instance(std::uint64_t seed) {
  return generate_uniform({.jobs = 48, .machines = 4, .horizon = 96,
                           .max_window = 10, .max_work = 8}, seed);
}

/// A connected AF_UNIX socket pair: the cheapest way to exercise framing and
/// raw protocol bytes without a real TCP listener.
struct SocketPair {
  ScopedFd a;
  ScopedFd b;

  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = ScopedFd(fds[0]);
    b = ScopedFd(fds[1]);
  }
};

/// Raw TCP connection to a server, for speaking malformed bytes at it.
ScopedFd raw_connect(std::uint16_t port) {
  ScopedFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  EXPECT_TRUE(fd.valid());
  EXPECT_TRUE(connect_loopback(fd.get(), port));
  return fd;
}

/// Status, detail, energy bits and every slice: what "bit-identical to the
/// in-process solve()" means for a decoded result.
void expect_bit_identical(const SolveResult& remote, const SolveResult& local) {
  EXPECT_EQ(remote.status, local.status);
  EXPECT_EQ(remote.error_detail, local.error_detail);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(remote.energy),
            std::bit_cast<std::uint64_t>(local.energy));
  ASSERT_NE(remote.exact_schedule(), nullptr);
  ASSERT_NE(local.exact_schedule(), nullptr);
  const Schedule& a = *remote.exact_schedule();
  const Schedule& b = *local.exact_schedule();
  ASSERT_EQ(a.machines(), b.machines());
  for (std::size_t m = 0; m < a.machines(); ++m) {
    auto sa = a.machine(m);
    auto sb = b.machine(m);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) EXPECT_EQ(sa[i], sb[i]);
  }
}

/// One request frame out, one reply frame back, on a raw connection.
std::string raw_round_trip(int fd, const Request& request) {
  write_frame(fd, encode_request(request));
  std::string payload;
  EXPECT_TRUE(read_frame(fd, payload));
  return payload;
}

// ---- framing ---------------------------------------------------------------

TEST(Framing, RoundTripsPayloads) {
  SocketPair pair;
  for (const std::string& payload :
       {std::string(""), std::string("x"), std::string(100000, 'q'),
        std::string("\0\x01\xff binary \n", 12)}) {
    write_frame(pair.a.get(), payload);
    std::string read_back;
    ASSERT_TRUE(read_frame(pair.b.get(), read_back));
    EXPECT_EQ(read_back, payload);
  }
}

TEST(Framing, CleanEofAtBoundaryReturnsFalse) {
  SocketPair pair;
  write_frame(pair.a.get(), "last");
  pair.a.close();
  std::string payload;
  ASSERT_TRUE(read_frame(pair.b.get(), payload));
  EXPECT_EQ(payload, "last");
  EXPECT_FALSE(read_frame(pair.b.get(), payload));
}

TEST(Framing, TruncationInsidePrefixOrPayloadThrows) {
  {
    SocketPair pair;
    const char half_prefix[2] = {0, 0};
    ASSERT_EQ(::send(pair.a.get(), half_prefix, 2, 0), 2);
    pair.a.close();
    std::string payload;
    EXPECT_THROW((void)read_frame(pair.b.get(), payload), FrameError);
  }
  {
    SocketPair pair;
    const unsigned char prefix[4] = {0, 0, 0, 10};  // promises 10 bytes
    ASSERT_EQ(::send(pair.a.get(), prefix, 4, 0), 4);
    ASSERT_EQ(::send(pair.a.get(), "abc", 3, 0), 3);  // delivers 3
    pair.a.close();
    std::string payload;
    EXPECT_THROW((void)read_frame(pair.b.get(), payload), FrameError);
  }
}

TEST(Framing, OversizedFramesAreRejectedOnBothSides) {
  SocketPair pair;
  EXPECT_THROW(write_frame(pair.a.get(), std::string(64, 'x'), /*max_bytes=*/63),
               FrameError);
  // A hostile prefix announcing more than the cap must throw before any
  // allocation of that size.
  const unsigned char huge[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(pair.a.get(), huge, 4, 0), 4);
  std::string payload;
  EXPECT_THROW((void)read_frame(pair.b.get(), payload, /*max_bytes=*/1 << 20),
               FrameError);
}

TEST(Framing, AcceptedSocketsSetTcpNoDelay) {
  ScopedFd listener = bind_listen_ipv4("127.0.0.1", 0, "test");
  ScopedFd client(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(connect_loopback(client.get(), bound_port(listener.get(), "test")));
  const std::atomic<bool> closed{false};
  ScopedFd accepted = accept_connection(listener.get(), closed);
  ASSERT_TRUE(accepted.valid());
  int nodelay = 0;
  socklen_t length = sizeof nodelay;
  ASSERT_EQ(::getsockopt(accepted.get(), IPPROTO_TCP, TCP_NODELAY, &nodelay, &length),
            0);
  EXPECT_EQ(nodelay, 1);
}

TEST(Framing, FuzzedStreamsNeverCrash) {
  // Random byte streams into the reader: every outcome must be a clean EOF,
  // a parsed (garbage) frame, or FrameError -- never a crash or a hang. The
  // cap keeps hostile length prefixes from allocating.
  Xoshiro256 rng(20260808);
  for (int round = 0; round < 200; ++round) {
    SocketPair pair;
    std::size_t length = static_cast<std::size_t>(rng.below(64));
    std::string bytes(length, '\0');
    for (char& c : bytes) c = static_cast<char>(rng() & 0xff);
    ASSERT_EQ(::send(pair.a.get(), bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    pair.a.close();
    std::string payload;
    try {
      while (read_frame(pair.b.get(), payload, /*max_bytes=*/4096)) {
      }
    } catch (const FrameError&) {
      // expected for most random streams
    }
  }
}

// ---- protocol codec --------------------------------------------------------

TEST(Protocol, RequestRoundTrips) {
  Request request;
  request.id = 42;
  request.verb = Verb::kSolveMany;
  request.instances = {fractional_instance(), small_instance()};
  request.options.engine = Engine::kFast;
  request.options.fast_epsilon = 1e-7;
  request.priority = 3;
  request.deadline_ms = 250;

  Request decoded = decode_request(encode_request(request));
  EXPECT_EQ(decoded.id, request.id);
  EXPECT_EQ(decoded.verb, request.verb);
  ASSERT_EQ(decoded.instances.size(), 2u);
  EXPECT_EQ(decoded.instances[0], request.instances[0]);
  EXPECT_EQ(decoded.instances[1], request.instances[1]);
  EXPECT_EQ(decoded.options.engine, Engine::kFast);
  EXPECT_EQ(decoded.options.fast_epsilon, 1e-7);
  EXPECT_EQ(decoded.priority, 3);
  EXPECT_EQ(decoded.deadline_ms, 250);
}

TEST(Protocol, ResultRoundTripsBitIdentically) {
  SolveResult original = solve(fractional_instance());
  ASSERT_TRUE(original.ok());
  ASSERT_NE(original.exact_schedule(), nullptr);

  Response response =
      decode_response(encode_results_response(1, std::span(&original, 1)));
  ASSERT_EQ(response.results.size(), 1u);
  const SolveResult& decoded = response.results[0];
  EXPECT_EQ(decoded.status, original.status);
  EXPECT_EQ(decoded.error_detail, original.error_detail);
  EXPECT_EQ(decoded.energy, original.energy);  // bit-equal doubles
  ASSERT_NE(decoded.exact_schedule(), nullptr);
  const Schedule& a = *original.exact_schedule();
  const Schedule& b = *decoded.exact_schedule();
  ASSERT_EQ(a.machines(), b.machines());
  for (std::size_t machine = 0; machine < a.machines(); ++machine) {
    auto sa = a.machine(machine);
    auto sb = b.machine(machine);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i], sb[i]);  // exact rational slices
    }
  }
}

TEST(Protocol, RetiredIncrementalKeysAreIgnored) {
  // Older clients may still send the removed rebuild-path switches; the decoder
  // skips unknown keys, so such a request runs with the default options.
  Request request;
  request.verb = Verb::kSolve;
  request.instances = {small_instance()};
  json::Value document = json::parse(encode_request(request));
  json::Value options = *document.find("options");
  options.set("exact_incremental", false);
  options.set("fast_incremental", false);
  json::Object members = document.as_object();
  for (auto& [key, value] : members) {
    if (key == "options") value = options;
  }

  Request decoded = decode_request(json::serialize(json::Value(members)));
  const SolveOptions defaults;
  EXPECT_EQ(decoded.options.engine, defaults.engine);
  EXPECT_EQ(decoded.options.fast_epsilon, defaults.fast_epsilon);
  EXPECT_EQ(decoded.options.lp_grid, defaults.lp_grid);
  EXPECT_EQ(decoded.options.lp_max_speed_hint, defaults.lp_max_speed_hint);
}

TEST(Protocol, DecodersRejectBadDocuments) {
  auto code_of = [](std::string_view payload) {
    try {
      (void)decode_request(payload);
    } catch (const ProtocolError& error) {
      return error.code();
    }
    return ErrorCode::kInternal;  // "did not throw" sentinel
  };
  EXPECT_EQ(code_of("not json"), ErrorCode::kBadRequest);
  EXPECT_EQ(code_of(R"({"id":1,"verb":"solve"})"), ErrorCode::kUnsupportedVersion);
  EXPECT_EQ(code_of(R"({"v":2,"id":1,"verb":"solve"})"),
            ErrorCode::kUnsupportedVersion);
  EXPECT_EQ(code_of(R"({"v":1,"id":1,"verb":"conquer"})"), ErrorCode::kUnknownVerb);
  EXPECT_EQ(code_of(R"({"v":1,"id":1,"verb":"solve"})"), ErrorCode::kBadRequest);
  EXPECT_EQ(code_of(R"({"v":1,"id":1,"verb":"solve","instance":7})"),
            ErrorCode::kBadRequest);
}

TEST(Protocol, ErrorResponsesCarryCodeAndDetail) {
  std::string wire = encode_error_response(9, ErrorCode::kQueueFull, "full up");
  Response response = decode_response(wire);
  EXPECT_EQ(response.id, 9u);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.code, ErrorCode::kQueueFull);
  EXPECT_EQ(response.detail, "full up");
}

TEST(Protocol, TraceContextRoundTripsAsDecimalStrings) {
  Request request;
  request.id = 7;
  request.verb = Verb::kSolve;
  request.instances = {small_instance()};
  // A trace id above 2^53 is exactly the case doubles would corrupt; the
  // codec must carry it as a decimal string and decode it bit-exactly.
  request.trace_id = 18347587744294764545ull;
  request.parent_span = 3;

  std::string wire = encode_request(request);
  EXPECT_NE(wire.find("\"trace\""), std::string::npos);
  EXPECT_NE(wire.find("\"18347587744294764545\""), std::string::npos);
  Request decoded = decode_request(wire);
  EXPECT_EQ(decoded.trace_id, 18347587744294764545ull);
  EXPECT_EQ(decoded.parent_span, 3u);

  // An untraced request must not grow a trace member, and decoding one
  // yields the zero context.
  request.trace_id = 0;
  request.parent_span = 0;
  wire = encode_request(request);
  EXPECT_EQ(wire.find("\"trace\""), std::string::npos);
  decoded = decode_request(wire);
  EXPECT_EQ(decoded.trace_id, 0u);
  EXPECT_EQ(decoded.parent_span, 0u);

  // Numeric (non-string) trace ids are a protocol error, not a silent
  // truncation through double.
  EXPECT_THROW(
      (void)decode_request(
          R"({"v":1,"id":1,"verb":"health","trace":{"id":123}})"),
      ProtocolError);
}

// Golden wire bytes: one exact, one fast and one error reply and one traced
// solve_many request, built by hand so that no engine change can move them.
SolveResult golden_exact_result() {
  Schedule schedule(2);
  schedule.add(1, Slice{Q(1, 3), Q(5, 2), Q(2), 1});
  schedule.add(0, Slice{Q(1, 2), Q(7, 3), Q(3, 7), 2});
  schedule.add(0, Slice{Q(0), Q(1, 2), Q(4, 3), 0});
  schedule.add(1, Slice{Q(5, 2), Q(BigInt::from_string("123456789012345678901"), BigInt(7)),
                        Q(-1, -9), 3});
  SolveResult result;
  result.energy = 2.7182818284590451;
  result.schedule = std::move(schedule);
  return result;
}

SolveResult golden_fast_result() {
  FastSchedule schedule;
  schedule.machines.resize(2);
  schedule.machines[0].push_back(FastSlice{0.0, 0.1, 1.0 / 3.0, 0});
  schedule.machines[1].push_back(FastSlice{1e-7, 2.5, 1e21, 1});
  schedule.machines[0].push_back(FastSlice{0.1, 509.763, 1e15, 2});
  SolveResult result;
  result.energy = 1234.5;
  result.schedule = std::move(schedule);
  return result;
}

TEST(Protocol, GoldenReplyBytes) {
  SolveResult none;
  none.status = SolveStatus::kInvalidOptions;
  none.error_detail = "lp_grid must be >= 2 \"x\"\n";
  none.energy = 0.0;
  const SolveResult results[] = {golden_exact_result(), golden_fast_result(), none};
  EXPECT_EQ(encode_results_response(7, results),
            R"({"v":1,"id":7,"ok":true,"results":[)"
            R"({"status":"ok","error_detail":"","energy":2.718281828459045,)"
            R"("schedule":{"type":"exact","machines":2,"slices":[)"
            R"([0,"0","1/2","4/3",0],[0,"1/2","7/3","3/7",2],)"
            R"([1,"1/3","5/2","2",1],[1,"5/2","123456789012345678901/7","1/9",3]]}},)"
            R"({"status":"ok","error_detail":"","energy":1234.5,)"
            R"("schedule":{"type":"fast","machines":2,"slices":[)"
            R"([0,0,0.1,0.3333333333333333,0],)"
            R"([0,0.1,509.763,1000000000000000,2],)"
            R"([1,1e-07,2.5,1e+21,1]]}},)"
            R"({"status":"invalid_options","error_detail":"lp_grid must be >= 2 \"x\"\n",)"
            R"("energy":0,"schedule":{"type":"none"}}]})");
  EXPECT_EQ(encode_error_response(9, ErrorCode::kQueueFull, "full \x01 \"up\"\\"),
            R"({"v":1,"id":9,"ok":false,"error":{"code":"queue_full",)"
            R"("detail":"full \u0001 \"up\"\\"}})");
}

TEST(Protocol, GoldenTracedSolveManyRequestBytes) {
  Request request;
  request.id = 12;
  request.verb = Verb::kSolveMany;
  request.instances = {
      Instance({Job{Q(0), Q(1, 2), Q(2, 3)}}, 2, PowerSpec::alpha(2.5)),
      Instance({Job{Q(1, 3), Q(5), Q(7)}, Job{Q(0), Q(2), Q(1)}}, 1,
               PowerSpec::piecewise({{0.0, 0.0}, {1.0, 0.3}, {2.0, 8.0}})),
  };
  request.options.engine = Engine::kFast;
  request.options.fast_epsilon = 1e-7;
  request.options.lp_max_speed_hint = 2.75;
  request.priority = -2;
  request.deadline_ms = 250;
  request.trace_id = 18347587744294764545ull;
  request.parent_span = 3;
  EXPECT_EQ(encode_request(request),
            R"({"v":1,"id":12,"verb":"solve_many","instances":[)"
            R"({"mpss_instance":1,"machines":2,"power":{"kind":"alpha","alpha":2.5},)"
            R"("jobs":[["0","1/2","2/3"]]},)"
            R"({"mpss_instance":1,"machines":1,"power":{"kind":"piecewise",)"
            R"("points":[[0,0],[1,0.3],[2,8]]},)"
            R"("jobs":[["1/3","5","7"],["0","2","1"]]}],)"
            R"("options":{"engine":"fast","fast_epsilon":1e-07,)"
            R"("lp_grid":8,"lp_max_speed_hint":2.75},"priority":-2,"deadline_ms":250,)"
            R"("trace":{"id":"18347587744294764545","parent":"3"}})");
}

TEST(Protocol, NamesRoundTrip) {
  for (Verb verb : {Verb::kSolve, Verb::kSolveMany, Verb::kStats, Verb::kHealth,
                    Verb::kMetrics, Verb::kShutdown}) {
    EXPECT_EQ(verb_from_name(verb_name(verb)), verb);
  }
  EXPECT_FALSE(verb_from_name("conquer").has_value());
  for (ErrorCode code :
       {ErrorCode::kBadFrame, ErrorCode::kBadRequest,
        ErrorCode::kUnsupportedVersion, ErrorCode::kUnknownVerb,
        ErrorCode::kQueueFull, ErrorCode::kShutdown, ErrorCode::kInternal}) {
    EXPECT_EQ(error_code_from_name(error_code_name(code)), code);
  }
  EXPECT_FALSE(error_code_from_name("nope").has_value());
}

// ---- util/json numbers -----------------------------------------------------

TEST(Json, IntegersPast2To53AreExactAndOtherNumbersParseAsBefore) {
  for (const char* text :
       {"9007199254740993", "18446744073709551615", "[18446744073709551615]"}) {
    EXPECT_EQ(json::serialize(json::parse(text)), text);
  }
  EXPECT_EQ(json::serialize(json::Value(std::size_t{18446744073709551615ull})),
            "18446744073709551615");
  EXPECT_EQ(json::parse("9007199254740993").as_double(), 9007199254740992.0);
  // 2^64 does not fit; at or below 2^53, or with a sign, fraction or
  // exponent, a number stays the double it always was.
  EXPECT_EQ(json::parse("18446744073709551616"), json::Value(18446744073709551616.0));
  EXPECT_EQ(json::parse("9007199254740992"), json::Value(9007199254740992.0));
  EXPECT_EQ(json::parse("-9007199254740993"), json::Value(-9007199254740993.0));
  EXPECT_EQ(json::parse("9007199254740993.0"), json::Value(9007199254740992.0));
  EXPECT_EQ(json::parse("1e3"), json::Value(1000.0));
}

// ---- util/json grammar parity -----------------------------------------------
// The grammar, the depth cap and every error text with its offset, pinned so
// that a change of parser cannot move them.

/// what() of the std::invalid_argument json::parse throws on `text`.
std::string parse_error(std::string_view text) {
  try {
    (void)json::parse(text);
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "(accepted)";
}

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + "0" + std::string(depth, ']');
}

TEST(Json, StringEscapesAndSurrogates) {
  EXPECT_EQ(json::parse(R"("q\"b\\s\/ \b\f\n\r\t")").as_string(),
            "q\"b\\s/ \b\f\n\r\t");
  EXPECT_EQ(json::parse(R"("\u0041\u00e9\u20ac")").as_string(),
            "A\xc3\xa9\xe2\x82\xac");
  EXPECT_EQ(json::parse(R"("a\u0000b")").as_string(), std::string("a\0b", 3));
  EXPECT_EQ(json::parse(R"("\ud83d\ude00")").as_string(), "\xf0\x9f\x98\x80");
  EXPECT_EQ(json::parse(R"("x\uD83D\uDE00y")").as_string(), "x\xf0\x9f\x98\x80y");
  // Raw bytes at or above 0x20 pass through, valid UTF-8 or not.
  EXPECT_EQ(json::parse("\"\xc3\xa9\xff\"").as_string(), "\xc3\xa9\xff");
  // A key with an escape is found by its decoded text.
  EXPECT_EQ(json::parse(R"({"a\u0062":1})").at("ab").as_double(), 1.0);
  EXPECT_EQ(parse_error(R"("\ud83d")"), "json: lone surrogate at offset 7");
  EXPECT_EQ(parse_error(R"("\ud83dx")"), "json: lone surrogate at offset 7");
  EXPECT_EQ(parse_error(R"("\ude00")"), "json: lone surrogate at offset 7");
  EXPECT_EQ(parse_error(R"("\ud83d\u0041")"), "json: bad surrogate pair at offset 13");
  EXPECT_EQ(parse_error(R"("\ud83d\u00")"), "json: bad \\u escape at offset 9");
  EXPECT_EQ(parse_error(R"("\u12G4")"), "json: bad \\u escape at offset 5");
  EXPECT_EQ(parse_error(R"("\u12")"), "json: bad \\u escape at offset 3");
  EXPECT_EQ(parse_error(R"("\x")"), "json: bad escape at offset 2");
  EXPECT_EQ(parse_error(R"("a\)"), "json: unterminated escape at offset 3");
  EXPECT_EQ(parse_error(R"("abc)"), "json: unterminated string at offset 4");
}

TEST(Json, RawControlCharactersAreRejected) {
  EXPECT_EQ(parse_error("\"a\x01" "b\""), "json: raw control character at offset 2");
  EXPECT_EQ(parse_error("\"\t\""), "json: raw control character at offset 1");
  EXPECT_EQ(parse_error("{\"k\n\":1}"), "json: raw control character at offset 3");
  EXPECT_EQ(parse_error(std::string("\"\0\"", 3)),
            "json: raw control character at offset 1");
  // Outside strings, the four JSON whitespace characters are skipped.
  EXPECT_EQ(json::parse(" \t\r\n[ 1 ,\n2 ] \n").as_array().size(), 2u);
}

TEST(Json, DepthCapIs96) {
  EXPECT_NO_THROW((void)json::parse(nested_arrays(96)));
  EXPECT_EQ(parse_error(nested_arrays(97)), "json: nesting too deep at offset 97");
  std::string objects;
  for (int i = 0; i < 96; ++i) objects += R"({"a":)";
  objects += "0" + std::string(96, '}');
  EXPECT_NO_THROW((void)json::parse(objects));
  EXPECT_EQ(parse_error(R"({"a":)" + objects + "}"),
            "json: nesting too deep at offset 485");
}

TEST(Json, TrailingContentIsRejected) {
  EXPECT_EQ(parse_error("{} x"), "json: trailing content at offset 3");
  EXPECT_EQ(parse_error("1 2"), "json: trailing content at offset 2");
  EXPECT_EQ(parse_error("[1]]"), "json: trailing content at offset 3");
  EXPECT_EQ(parse_error("1.5.2"), "json: trailing content at offset 3");
  EXPECT_EQ(parse_error("0x10"), "json: trailing content at offset 1");
  EXPECT_EQ(json::parse("[1] \r\n\t").as_array().size(), 1u);
}

TEST(Json, DuplicateKeysKeepTheFirstForLookup) {
  json::Value document = json::parse(R"({"a":1,"b":2,"a":3})");
  EXPECT_EQ(document.at("a").as_double(), 1.0);
  EXPECT_EQ(document.find("a")->as_double(), 1.0);
  EXPECT_EQ(document.as_object().size(), 3u);
  EXPECT_EQ(json::serialize(document), R"({"a":1,"b":2,"a":3})");
  Request request = decode_request(R"({"v":1,"id":4,"verb":"health","verb":"conquer","id":5})");
  EXPECT_EQ(request.verb, Verb::kHealth);
  EXPECT_EQ(request.id, 4u);
}

TEST(Json, NumberGrammar) {
  const json::Value negative_zero = json::parse("-0");
  EXPECT_EQ(negative_zero.as_double(), 0.0);
  EXPECT_TRUE(std::signbit(negative_zero.as_double()));
  EXPECT_EQ(json::parse("1.").as_double(), 1.0);
  EXPECT_EQ(json::parse("01").as_double(), 1.0);
  EXPECT_EQ(json::parse("1.e2").as_double(), 100.0);
  EXPECT_EQ(json::parse("2E-1").as_double(), 0.2);
  EXPECT_EQ(json::parse("1e400").as_double(), HUGE_VAL);
  EXPECT_EQ(json::parse("-1e400").as_double(), -HUGE_VAL);
  EXPECT_EQ(json::parse("1e-400").as_double(), 0.0);
  EXPECT_EQ(json::parse("4.9406564584124654e-324").as_double(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(json::parse("0.1").as_double(), 0.1);
  EXPECT_EQ(json::parse("9007199254740993").as_u64(), 9007199254740993ull);
  EXPECT_EQ(json::parse("00000000000000009007199254740993").as_u64(),
            9007199254740993ull);
  EXPECT_EQ(json::parse("18446744073709551616").as_double(), 18446744073709551616.0);
  EXPECT_THROW((void)json::parse("18446744073709551616").as_u64(), std::invalid_argument);
  EXPECT_EQ(json::parse("18446744073709551615").as_u64(), 18446744073709551615ull);
  EXPECT_EQ(parse_error("1e"), "json: invalid number at offset 0");
  EXPECT_EQ(parse_error("1e+"), "json: invalid number at offset 0");
  EXPECT_EQ(parse_error("-"), "json: invalid number at offset 0");
  EXPECT_EQ(parse_error("+1"), "json: invalid number at offset 0");
  EXPECT_EQ(parse_error(".5"), "json: invalid number at offset 0");
  EXPECT_EQ(parse_error("[1,-e]"), "json: invalid number at offset 3");
}

TEST(Json, ErrorTextsCarryOffsets) {
  const std::pair<const char*, const char*> cases[] = {
      {"", "json: unexpected end of input at offset 0"},
      {"  ", "json: unexpected end of input at offset 2"},
      {"[1,", "json: unexpected end of input at offset 3"},
      {"{\"a\":1", "json: unexpected end of input at offset 6"},
      {"tru", "json: invalid literal at offset 0"},
      {"nul", "json: invalid literal at offset 0"},
      {"[fals]", "json: invalid literal at offset 1"},
      {"[1,]", "json: invalid number at offset 3"},
      {"{\"a\" 1}", "json: unexpected character at offset 5"},
      {"{1:2}", "json: unexpected character at offset 1"},
      {"{\"a\":1 \"b\":2}", "json: expected ',' or '}' at offset 7"},
      {"[1 2]", "json: expected ',' or ']' at offset 3"},
      {"{\"a\":1,}", "json: unexpected character at offset 7"},
  };
  for (const auto& [text, message] : cases) {
    EXPECT_EQ(parse_error(text), message) << text;
  }
}

TEST(Json, DoublesRoundTripBitForBitInShortestForm) {
  auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  auto round_trip = [](double value) {
    return json::parse(json::serialize(json::Value(value))).as_double();
  };
  std::vector<double> values = {
      0.0, -0.0, std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3, std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(), std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(), 9007199254740991.0, 9007199254740992.0,
      9007199254740994.0, -9007199254740994.0, 999999999999999.0, 1e15, 1e15 + 1,
      -1e15, 99999999999999984.0, 1e17, 1e17 + 16, 0.1, 1.0 / 3.0, 509.763, 1e-7,
      1e21, 123456789.125};
  Xoshiro256 rng(53);
  while (values.size() < 100000) {
    const double value = std::bit_cast<double>(rng());
    if (std::isfinite(value)) values.push_back(value);
  }
  for (double value : values) {
    ASSERT_EQ(bits(round_trip(value)), bits(value)) << json::serialize(json::Value(value));
  }
  // Shortest digits, -0 signed; integral values below 1e17 stay plain digits.
  const std::pair<double, const char*> texts[] = {
      {0.0, "0"}, {-0.0, "-0"}, {0.1, "0.1"}, {509.763, "509.763"},
      {1e-7, "1e-07"}, {999999999999999.0, "999999999999999"},
      {1e15, "1000000000000000"}, {9007199254740993.0, "9007199254740992"},
      {99999999999999984.0, "99999999999999984"}, {1e17, "1e+17"},
      {-2.5, "-2.5"}, {4.9406564584124654e-324, "5e-324"}};
  for (const auto& [value, text] : texts) {
    EXPECT_EQ(json::serialize(json::Value(value)), text);
  }
}

TEST(Json, AsU64ReadsNonNegativeIntegersExactly) {
  EXPECT_EQ(json::parse("7").as_u64(), 7u);
  EXPECT_EQ(json::parse("7.0").as_u64(), 7u);
  EXPECT_EQ(json::parse("1e3").as_u64(), 1000u);
  EXPECT_EQ(json::parse("18446744073709551615").as_u64(), 18446744073709551615ull);
  for (const char* text : {"-1", "0.5", "1e300", "\"7\"", "9007199254740994.0"}) {
    EXPECT_THROW((void)json::parse(text).as_u64(), std::invalid_argument) << text;
  }
}

// ---- server end-to-end -----------------------------------------------------

TEST(SolveServer, LoopbackSolveIsBitIdenticalToInProcess) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());

  for (const Instance& instance : {small_instance(), fractional_instance()}) {
    SolveResult local = solve(instance);
    SolveResult remote = client.solve(instance);
    EXPECT_EQ(remote.status, local.status);
    EXPECT_EQ(remote.error_detail, local.error_detail);
    EXPECT_EQ(remote.energy, local.energy);  // bit-equal, not approximately
    ASSERT_NE(remote.exact_schedule(), nullptr);
    ASSERT_NE(local.exact_schedule(), nullptr);
    ASSERT_EQ(remote.exact_schedule()->machines(),
              local.exact_schedule()->machines());
    for (std::size_t m = 0; m < local.exact_schedule()->machines(); ++m) {
      auto remote_slices = remote.exact_schedule()->machine(m);
      auto local_slices = local.exact_schedule()->machine(m);
      ASSERT_EQ(remote_slices.size(), local_slices.size());
      for (std::size_t i = 0; i < local_slices.size(); ++i) {
        EXPECT_EQ(remote_slices[i], local_slices[i]);
      }
    }
  }
  server.shutdown();
}

TEST(SolveServer, SolveManyPreservesOrderAndOptionsTravel) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  std::vector<Instance> instances = {small_instance(), fractional_instance(),
                                     small_instance().with_machines(1)};
  SolveOptions options;
  options.engine = Engine::kFast;
  std::vector<SolveResult> remote = client.solve_many(instances, options);
  ASSERT_EQ(remote.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    SolveResult local = solve(instances[i], options);
    EXPECT_EQ(remote[i].status, local.status);
    EXPECT_EQ(remote[i].energy, local.energy);
    EXPECT_NE(remote[i].fast_schedule(), nullptr);  // fast engine travelled
  }
  server.shutdown();
}

TEST(SolveServer, SolveLevelFailuresComeBackAsStatuses) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  SolveOptions bad;
  bad.engine = Engine::kLp;
  bad.lp_grid = 1;
  SolveResult result = client.solve(small_instance(), bad);
  EXPECT_EQ(result.status, SolveStatus::kInvalidOptions);
  EXPECT_FALSE(result.error_detail.empty());  // error_detail over the wire
  server.shutdown();
}

TEST(SolveServer, PowerSpecTravelsWithTheInstance) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  Instance cube = small_instance();
  Instance square = cube.with_power(PowerSpec::alpha(2.0));
  EXPECT_EQ(client.solve(cube).energy, solve(cube).energy);
  EXPECT_EQ(client.solve(square).energy, solve(square).energy);
  EXPECT_NE(client.solve(cube).energy, client.solve(square).energy);
  server.shutdown();
}

TEST(SolveServer, StatsAndHealthVerbs) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  json::Value health = client.health();
  EXPECT_EQ(health.at("status").as_string(), "ok");
  EXPECT_EQ(health.at("protocol").as_double(),
            static_cast<double>(kProtocolVersion));

  (void)client.solve(small_instance());
  (void)client.solve(small_instance());  // cache hit
  json::Value stats = client.stats();
  EXPECT_EQ(stats.at("cache").at("hits").as_double(), 1.0);
  EXPECT_EQ(stats.at("cache").at("misses").as_double(), 1.0);
  EXPECT_GE(stats.at("workers").as_double(), 1.0);
  server.shutdown();
}

TEST(SolveServer, AllHitRepliesAreByteIdenticalToEncodedResults) {
  // Hits are answered on the reader from each cache entry's memoized result
  // object; the bytes must be exactly what encoding the results writes.
  SolveServer server;
  const Instance a = small_instance();
  const Instance b = fractional_instance();
  {
    SolveClient warm("127.0.0.1", server.port());
    ASSERT_TRUE(warm.solve(a).ok());
    ASSERT_TRUE(warm.solve(b).ok());
  }
  const SolveResult local_a = solve(a);
  const SolveResult local_b = solve(b);
  const BatchSolver::CacheStats before = server.solver().cache_stats();

  ScopedFd raw = raw_connect(server.port());
  Request one;
  one.id = 5;
  one.verb = Verb::kSolve;
  one.instances = {a};
  EXPECT_EQ(raw_round_trip(raw.get(), one),
            encode_results_response(5, std::span(&local_a, 1)));
  Request many;
  many.id = 6;
  many.verb = Verb::kSolveMany;
  many.instances = {b, a, b};
  const SolveResult locals[] = {local_b, local_a, local_b};
  EXPECT_EQ(raw_round_trip(raw.get(), many), encode_results_response(6, locals));
  // Twice over: the second reply pastes the objects the first one wrote.
  EXPECT_EQ(raw_round_trip(raw.get(), many), encode_results_response(6, locals));

  const BatchSolver::CacheStats after = server.solver().cache_stats();
  EXPECT_EQ(after.hits - before.hits, 7u);
  EXPECT_EQ(after.misses, before.misses);
  server.shutdown();
}

TEST(SolveServer, SolveManyMixingHitsAndAMissDecodesBitIdentically) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  const Instance hot = small_instance();
  const Instance cold = fractional_instance();
  ASSERT_TRUE(client.solve(hot).ok());
  const std::vector<Instance> instances = {hot, cold, hot};
  std::vector<SolveResult> remote = client.solve_many(instances);
  ASSERT_EQ(remote.size(), instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    SCOPED_TRACE(i);
    expect_bit_identical(remote[i], solve(instances[i]));
  }
  const BatchSolver::CacheStats stats = server.solver().cache_stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
  server.shutdown();
}

TEST(SolveServer, HitPipelinedBehindASlowMissIsAnsweredAfterIt) {
  // The reader writes a hit itself only when nothing is queued ahead of it;
  // behind a miss still solving, the hit waits its turn in the FIFO.
  SolveServerOptions options;
  options.service.threads = 1;
  SolveServer server(std::move(options));
  const Instance hot = small_instance();
  {
    SolveClient warm("127.0.0.1", server.port());
    ASSERT_TRUE(warm.solve(hot).ok());
  }
  const Instance slow = generate_uniform(
      {.jobs = 96, .machines = 4, .horizon = 96, .max_window = 10, .max_work = 8}, 21);

  ScopedFd raw = raw_connect(server.port());
  Request miss;
  miss.id = 1;
  miss.verb = Verb::kSolve;
  miss.instances = {slow};
  Request hit;
  hit.id = 2;
  hit.verb = Verb::kSolve;
  hit.instances = {hot};
  write_frame(raw.get(), encode_request(miss));
  write_frame(raw.get(), encode_request(hit));

  std::string payload;
  ASSERT_TRUE(read_frame(raw.get(), payload));
  Response first = decode_response(payload);
  EXPECT_EQ(first.id, 1u);
  ASSERT_EQ(first.results.size(), 1u);
  EXPECT_TRUE(first.results[0].ok());
  ASSERT_TRUE(read_frame(raw.get(), payload));
  Response second = decode_response(payload);
  EXPECT_EQ(second.id, 2u);
  ASSERT_EQ(second.results.size(), 1u);
  expect_bit_identical(second.results[0], solve(hot));
  server.shutdown();
}

TEST(SolveServer, PipelinedHitsAndMissesComeBackInRequestOrder) {
  // Hits interleaved with distinct misses on one connection: the FIFO drains
  // and refills throughout, so replies come from the reader (inline) and the
  // writer in turn, and must still arrive in id order, each one correct.
  SolveServer server;
  const std::vector<Instance> hot = {small_instance(), fractional_instance()};
  {
    SolveClient warm("127.0.0.1", server.port());
    for (const Instance& instance : hot) ASSERT_TRUE(warm.solve(instance).ok());
  }
  constexpr std::uint64_t kRequests = 48;
  std::vector<Instance> sent;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    sent.push_back(i % 2 == 0 ? hot[(i / 2) % 2]
                              : generate_uniform({.jobs = 12, .machines = 3, .horizon = 24,
                                                  .max_window = 8, .max_work = 6},
                                                 100 + i));
  }
  ScopedFd raw = raw_connect(server.port());
  std::jthread sender([&] {
    try {
      for (std::uint64_t i = 0; i < kRequests; ++i) {
        Request request;
        request.id = i + 1;
        request.verb = Verb::kSolve;
        request.instances = {sent[i]};
        write_frame(raw.get(), encode_request(request));
      }
    } catch (const FrameError&) {
      // the reads below fail and report it
    }
  });
  std::string payload;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(read_frame(raw.get(), payload));
    Response response = decode_response(payload);
    EXPECT_EQ(response.id, i + 1);
    ASSERT_EQ(response.results.size(), 1u);
    expect_bit_identical(response.results[0], solve(sent[i]));
  }
  sender.join();
  EXPECT_EQ(server.solver().cache_stats().hits, kRequests / 2);
  server.shutdown();
}

TEST(SolveServer, CacheIsSharedAcrossConnections) {
  SolveServer server;
  SolveClient first("127.0.0.1", server.port());
  (void)first.solve(small_instance());
  SolveClient second("127.0.0.1", server.port());
  (void)second.solve(small_instance());
  json::Value stats = second.stats();
  EXPECT_EQ(stats.at("cache").at("hits").as_double(), 1.0);
  server.shutdown();
}

TEST(SolveServer, MalformedRequestsGetErrorResponsesAndTheConnectionSurvives) {
  SolveServer server;
  ScopedFd raw = raw_connect(server.port());

  write_frame(raw.get(), "this is not json");
  std::string payload;
  ASSERT_TRUE(read_frame(raw.get(), payload));
  Response bad = decode_response(payload);
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(bad.code, ErrorCode::kBadRequest);

  write_frame(raw.get(), R"({"v":99,"id":5,"verb":"solve"})");
  ASSERT_TRUE(read_frame(raw.get(), payload));
  EXPECT_EQ(decode_response(payload).code, ErrorCode::kUnsupportedVersion);

  // The connection is still serviceable after two bad requests.
  Request request;
  request.id = 6;
  request.verb = Verb::kHealth;
  write_frame(raw.get(), encode_request(request));
  ASSERT_TRUE(read_frame(raw.get(), payload));
  EXPECT_TRUE(decode_response(payload).ok);
  server.shutdown();
}

TEST(SolveServer, DeadlineTravelsAndExpires) {
  SolveServerOptions options;
  options.service.threads = 1;
  SolveServer server(std::move(options));
  SolveClient client("127.0.0.1", server.port());
  // A 48-job exact solve cannot finish in 1ms; the daemon must report
  // kDeadlineExceeded through the normal result path, not an error payload.
  SolveResult result = client.solve(heavy_instance(1), SolveOptions{},
                                    /*priority=*/0, /*deadline_ms=*/1);
  EXPECT_EQ(result.status, SolveStatus::kDeadlineExceeded);
  EXPECT_FALSE(result.error_detail.empty());
  server.shutdown();
}

TEST(SolveServer, GracefulDrainResolvesEveryAcceptedRequest) {
  SolveServerOptions options;
  options.service.threads = 2;
  SolveServer server(std::move(options));

  // Pipeline several non-trivial solves plus a shutdown verb on one raw
  // connection WITHOUT reading responses. The daemon's reader ingests frames
  // in order, so by the time the shutdown verb is handled every earlier solve
  // has been accepted; the drain contract then demands all of them resolve
  // and their responses be written before the listener closes.
  ScopedFd raw = raw_connect(server.port());
  constexpr std::uint64_t kSolves = 4;
  for (std::uint64_t i = 0; i < kSolves; ++i) {
    Request request;
    request.id = i + 1;
    request.verb = Verb::kSolve;
    request.instances.push_back(heavy_instance(i + 1));
    write_frame(raw.get(), encode_request(request));
  }
  Request shutdown_request;
  shutdown_request.id = kSolves + 1;
  shutdown_request.verb = Verb::kShutdown;
  write_frame(raw.get(), encode_request(shutdown_request));

  std::string payload;
  for (std::uint64_t i = 0; i < kSolves; ++i) {
    ASSERT_TRUE(read_frame(raw.get(), payload)) << "response " << i;
    Response response = decode_response(payload);
    EXPECT_EQ(response.id, i + 1);
    ASSERT_TRUE(response.ok);
    ASSERT_EQ(response.results.size(), 1u);
    EXPECT_EQ(response.results[0].status, SolveStatus::kOk);
  }
  ASSERT_TRUE(read_frame(raw.get(), payload));  // the shutdown ack, FIFO-last
  Response ack = decode_response(payload);
  EXPECT_EQ(ack.id, kSolves + 1);
  EXPECT_TRUE(ack.ok);
  EXPECT_FALSE(read_frame(raw.get(), payload));  // then a clean close

  server.wait();  // the verb-initiated shutdown completes on its own
}

TEST(SolveServer, DisconnectCancelsOutstandingWork) {
  SolveServerOptions options;
  options.service.threads = 1;  // one worker: requests queue behind each other
  SolveServer server(std::move(options));

  // Big enough that the lone worker cannot drain the queue in the gap between
  // the client vanishing and the reader thread observing EOF -- the S46 kernel
  // made heavy_instance-sized solves fast enough to lose that race.
  auto slow_instance = [](std::uint64_t seed) {
    return generate_uniform({.jobs = 96, .machines = 4, .horizon = 96,
                             .max_window = 10, .max_work = 8}, seed);
  };

  std::uint64_t cancelled_before =
      obs::Registry::global().snapshot().value("net.cancelled_on_disconnect");
  {
    ScopedFd raw = raw_connect(server.port());
    for (std::uint64_t i = 0; i < 6; ++i) {
      Request request;
      request.id = i + 1;
      request.verb = Verb::kSolve;
      request.instances.push_back(slow_instance(i + 10));
      write_frame(raw.get(), encode_request(request));
    }
    // Wait until the reader has ingested at least one frame, then vanish.
    std::string payload;
    ASSERT_TRUE(read_frame(raw.get(), payload));
  }  // raw closes: the daemon should cancel whatever is still pending

  // The reader notices EOF asynchronously; give it a bounded window (it only
  // needs one scheduling slice) before tearing the server down.
  std::uint64_t cancelled_after = cancelled_before;
  for (int spin = 0; spin < 400 && cancelled_after == cancelled_before; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cancelled_after =
        obs::Registry::global().snapshot().value("net.cancelled_on_disconnect");
  }
  // Shutdown completes promptly because the abandoned solves stop at their
  // next checkpoint instead of running to completion.
  server.shutdown();
  EXPECT_GT(cancelled_after, cancelled_before);
}

TEST(SolveServer, ClosedConnectionsReleaseTheirSockets) {
  // With 32 descriptors to spare, 100 sequential connections get through
  // only if each closed connection gives its socket back at once.
  SolveServer server;
  ScopedFdLimit limit(32);
  ASSERT_TRUE(limit.ok());
  for (int i = 0; i < 100; ++i) {
    SolveClient client("127.0.0.1", server.port(), {.io_timeout_ms = 2000, .retry = {}});
    ASSERT_EQ(client.health().at("status").as_string(), "ok") << "round trip " << i;
  }
}

TEST(SolveServer, AcceptErrorsAreCountedAndRetried) {
  auto accept_errors = [] {
    return obs::Registry::global().snapshot().value("net.accept_errors");
  };
  const std::uint64_t before = accept_errors();
  // connect() takes no descriptor. The daemon starts with one to spare, which
  // its listening socket takes, so its accept() meets EMFILE.
  ScopedFd pending(::socket(AF_INET, SOCK_STREAM, 0));
  std::optional<SolveServer> server;
  {
    ScopedFdLimit limit(16);
    ASSERT_TRUE(limit.ok());
    limit.exhaust(/*spare=*/1);
    server.emplace();
    EXPECT_TRUE(connect_loopback(pending.get(), server->port()));
    for (int i = 0; i < 200 && accept_errors() == before; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_GT(accept_errors(), before);
  }
  // With the descriptors back, the backlog's connection and a fresh one are
  // both served within 2 s.
  set_recv_timeout(pending.get(), 2000, "test");
  write_frame(pending.get(), R"({"v":1,"id":1,"verb":"health"})");
  std::string payload;
  ASSERT_TRUE(read_frame(pending.get(), payload));
  EXPECT_TRUE(decode_response(payload).ok);
  SolveClient fresh("127.0.0.1", server->port(),
                    {.connect_timeout_ms = 2000, .io_timeout_ms = 2000,
                     .retry = {.max_attempts = 1}});
  EXPECT_EQ(fresh.health().at("status").as_string(), "ok");
}

TEST(SolveServer, RetiredAvrPeelingKeyIsIgnored) {
  // The peel-dependent instance of test_ablations: AVR without its peel runs
  // the dense job on two processors at once. The retired switch must not
  // reach the engine.
  const std::string text =
      R"({"v":1,"id":3,"verb":"solve","options":{"engine":"avr","avr_peeling":false},)"
      R"("instance":{"mpss_instance":1,"machines":2,)"
      R"("jobs":[["0","1","10"],["0","1","1"],["0","1","1"]]}})";
  SolveServer server;
  ScopedFd raw = raw_connect(server.port());
  write_frame(raw.get(), text);
  std::string payload;
  ASSERT_TRUE(read_frame(raw.get(), payload));
  Response response = decode_response(payload);
  ASSERT_EQ(response.results.size(), 1u);
  ASSERT_TRUE(response.results[0].ok());
  EXPECT_EQ(response.results[0].violations(decode_request(text).instances[0]), 0u);
}

TEST(SolveServer, ShutdownIsIdempotentAndRejectsLateClients) {
  SolveServer server;
  std::uint16_t port = server.port();
  server.shutdown();
  server.shutdown();  // second call is a no-op
  EXPECT_THROW(SolveClient("127.0.0.1", port), std::runtime_error);
}

// ---- distributed tracing (S47) ---------------------------------------------

/// Attaches `sink` to the global registry for the test's scope.
struct ScopedSink {
  explicit ScopedSink(obs::TraceSink* sink) {
    obs::Registry::global().attach_sink(sink);
  }
  ~ScopedSink() { obs::Registry::global().attach_sink(nullptr); }
};

TEST(SolveServer, TraceLinksClientAndServerSpansAcrossLoopback) {
  obs::MemorySink sink;
  ScopedSink attach(&sink);

  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.solve(small_instance()).ok());
  server.shutdown();  // drain: every server-side span is closed and recorded

  // Loopback means both processes' spans land in the one global sink, which
  // is exactly what lets this test assert the full parent chain: the engine's
  // solve span must be a transitive child of the client's client.solve span,
  // crossing the wire (remote_parent) and the worker handoff (local_parent).
  std::vector<obs::TraceEvent> events = sink.events();
  auto begin_of = [&events](std::string_view label) -> const obs::TraceEvent* {
    for (const obs::TraceEvent& event : events) {
      if (event.kind == obs::EventKind::kSpanBegin && event.label == label) {
        return &event;
      }
    }
    return nullptr;
  };

  const obs::TraceEvent* client_span = begin_of("client.solve");
  ASSERT_NE(client_span, nullptr);
  ASSERT_NE(client_span->trace, 0u);  // the client minted a trace id

  const obs::TraceEvent* net_span = begin_of("net.request");
  ASSERT_NE(net_span, nullptr);
  EXPECT_EQ(net_span->trace, client_span->trace);
  // The wire hop: net.request is a root span in the server whose parent lives
  // in the peer process, carried as remote_parent (b stays 0).
  EXPECT_EQ(net_span->b, 0u);
  EXPECT_EQ(net_span->remote_parent, client_span->a);

  const obs::TraceEvent* service_span = begin_of("service.request");
  ASSERT_NE(service_span, nullptr);
  EXPECT_EQ(service_span->trace, client_span->trace);
  // The thread hop: the worker's span re-roots onto the reader's net.request
  // span (local_parent), not the pool's long-lived pool.task wrapper.
  EXPECT_EQ(service_span->b, net_span->a);

  const obs::TraceEvent* engine_span = begin_of("optimal.solve");
  ASSERT_NE(engine_span, nullptr);
  EXPECT_EQ(engine_span->trace, client_span->trace);
  EXPECT_EQ(engine_span->b, service_span->a);
  // Transitivity: optimal.solve -> service.request -> net.request ~> (remote)
  // client.solve, all under one trace id. QED for the S47 acceptance chain.
}

TEST(SolveServer, UntracedRequestsStayUntraced) {
  // No sink: the client must not stamp a trace context into the request, and
  // nothing in the daemon path may crash on the all-zero context.
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.solve(small_instance()).ok());
  json::Value stats = client.stats();
  EXPECT_GE(stats.at("uptime_seconds").as_double(), 0.0);
  server.shutdown();
}

TEST(SolveServer, MetricsVerbReturnsPrometheusText) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  (void)client.solve(small_instance());
  std::string text = client.metrics();
  EXPECT_NE(text.find("# TYPE mpss_net_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("mpss_net_requests_total"), std::string::npos);
  // Every non-comment line is "name[{labels}] value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    auto space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
  }
  server.shutdown();
}

TEST(SolveServer, StatsReportLatencyPercentilesAfterTracedSolves) {
  SolveServer server;
  SolveClient client("127.0.0.1", server.port());
  (void)client.solve(small_instance());
  (void)client.solve(fractional_instance());
  json::Value stats = client.stats();
  const json::Value* latency = stats.find("latency");
  ASSERT_NE(latency, nullptr);
  const json::Value* request_us = latency->find("net.request_us");
  ASSERT_NE(request_us, nullptr);
  EXPECT_GE(request_us->at("count").as_double(), 2.0);
  EXPECT_GT(request_us->at("p50").as_double(), 0.0);
  EXPECT_LE(request_us->at("p50").as_double(),
            request_us->at("p99").as_double());
  server.shutdown();
}

TEST(SolveServer, SlowLogEmitsOneJsonRecordPerRequest) {
  std::ostringstream log;
  SolveServerOptions options;
  options.slow_ms = 0;  // threshold 0: log every request
  options.request_log = &log;
  SolveServer server(std::move(options));
  SolveClient client("127.0.0.1", server.port());
  ASSERT_TRUE(client.solve(small_instance()).ok());
  ASSERT_TRUE(client.solve(small_instance()).ok());  // cache hit
  server.shutdown();

  std::istringstream lines(log.str());
  std::string line;
  std::size_t solves = 0;
  bool saw_cache_hit = false;
  while (std::getline(lines, line)) {
    json::Value record = json::parse(line);  // machine-parseable or bust
    EXPECT_EQ(record.at("event").as_string(), "request");
    if (record.at("verb").as_string() != "solve") continue;
    ++solves;
    EXPECT_EQ(record.at("status").as_string(), "ok");
    EXPECT_EQ(record.at("engine").as_string(), "exact");
    EXPECT_GE(record.at("wall_us").as_double(), 0.0);
    EXPECT_GE(record.at("queue_wait_us").as_double(), 0.0);
    saw_cache_hit = saw_cache_hit || record.at("cache_hit").as_bool();
  }
  EXPECT_EQ(solves, 2u);
  EXPECT_TRUE(saw_cache_hit);  // the second solve was served from cache
  EXPECT_GE(obs::Registry::global().snapshot().value("net.slow_requests"), 2u);
}

}  // namespace
}  // namespace mpss::net
