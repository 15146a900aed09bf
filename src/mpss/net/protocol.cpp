#include "mpss/net/protocol.hpp"

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <utility>

namespace mpss::net {
namespace {

/// Wraps the JSON layer's std::invalid_argument into kBadRequest so callers
/// see one failure type for "the peer sent nonsense".
template <typename Fn>
auto bad_request_scope(Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const ProtocolError&) {
    throw;  // already coded
  } catch (const std::exception& error) {
    throw ProtocolError(ErrorCode::kBadRequest, error.what());
  }
}

/// The largest double that is still an exact integer (2^53). Every checked
/// double -> integer conversion below bounds by it BEFORE casting: a cast
/// from a double past the target's range (a hostile "id": 1e300, inf) is
/// undefined behavior, and NaN slips through naive `raw < 0` guards because
/// every comparison against NaN is false. All checks are therefore written in
/// the accepting direction (`raw >= lo && raw <= hi`), which NaN fails.
constexpr double kMaxExactDouble = 9007199254740992.0;

/// Checked double -> non-negative integer: rejects NaN, infinities,
/// negatives, fractions, and anything past 2^53. Throws invalid_argument
/// (bad_request_scope recodes it) naming `what`.
std::uint64_t checked_u64(double raw, const char* what) {
  if (!(raw >= 0.0 && raw <= kMaxExactDouble && raw == std::floor(raw))) {
    throw std::invalid_argument(std::string("protocol: ") + what +
                                " must be a non-negative integer (<= 2^53)");
  }
  return static_cast<std::uint64_t>(raw);
}

std::uint64_t id_from(json::Ref document) {
  if (std::optional<json::Ref> id = document.find("id")) {
    double raw = id->as_double();
    if (!(raw >= 0.0 && raw <= kMaxExactDouble && raw == std::floor(raw))) {
      throw ProtocolError(ErrorCode::kBadRequest,
                          "protocol: id must be a non-negative integer");
    }
    return static_cast<std::uint64_t>(raw);
  }
  return 0;
}

void check_version(json::Ref document) {
  std::optional<json::Ref> version = document.find("v");
  if (!version || !version->is_number() ||
      version->as_double() != static_cast<double>(kProtocolVersion)) {
    throw ProtocolError(ErrorCode::kUnsupportedVersion,
                        "protocol: expected v=" + std::to_string(kProtocolVersion));
  }
}

void write_schedule(json::Writer& out, const SolveResult& result) {
  out.begin_object();
  if (const Schedule* exact = result.exact_schedule()) {
    out.key("type").string("exact");
    out.key("machines").integer(exact->machines());
    out.key("slices").begin_array();
    for (std::size_t machine = 0; machine < exact->machines(); ++machine) {
      for (const Slice& slice : exact->machine(machine)) {
        out.begin_array().integer(machine);
        write_rational(out, slice.start);
        write_rational(out, slice.end);
        write_rational(out, slice.speed);
        out.integer(slice.job).end_array();
      }
    }
    out.end_array();
  } else if (const FastSchedule* fast = result.fast_schedule()) {
    out.key("type").string("fast");
    out.key("machines").integer(fast->machines.size());
    out.key("slices").begin_array();
    for (std::size_t machine = 0; machine < fast->machines.size(); ++machine) {
      for (const FastSlice& slice : fast->machines[machine]) {
        out.begin_array().integer(machine).number(slice.start).number(slice.end);
        out.number(slice.speed).integer(slice.job).end_array();
      }
    }
    out.end_array();
  } else {
    out.key("type").string("none");
  }
  out.end_object();
}

/// A double the encoder could have written: a literal past the double range
/// parses to +-inf, which the encoder writes as null, so it cannot round-trip.
double finite_number(json::Ref value, const char* what) {
  const double raw = value.as_double();
  if (!std::isfinite(raw)) {
    throw std::invalid_argument(std::string("protocol: ") + what + " must be finite");
  }
  return raw;
}

std::size_t slice_machine(json::Ref field, std::size_t machines) {
  double raw = field.as_double();
  if (raw < 0 || raw >= static_cast<double>(machines) || raw != std::floor(raw)) {
    throw std::invalid_argument("protocol: slice machine index out of range");
  }
  return static_cast<std::size_t>(raw);
}

std::size_t slice_job(json::Ref value) {
  return static_cast<std::size_t>(
      checked_u64(value.as_double(), "slice job index"));
}

/// One [machine, start, end, speed, job] row, checked for its arity.
json::ArrayRef slice_fields(json::Ref row) {
  json::ArrayRef fields = row.as_array();
  if (fields.size() != 5) {
    throw std::invalid_argument(
        "protocol: slices must be [machine, start, end, speed, job]");
  }
  return fields;
}

/// `instance_machines`, when known, is the machine count of the instance the
/// result answers: every engine schedules on exactly that many machines, so
/// any other count is refused before it sizes anything.
void schedule_from_json(json::Ref value, SolveResult& result,
                        std::optional<std::size_t> instance_machines) {
  const std::string_view type = value.at("type").as_string();
  if (type == "none") return;
  double machines_raw = value.at("machines").as_double();
  if (!(machines_raw >= 1.0 && machines_raw <= kMaxExactDouble &&
        machines_raw == std::floor(machines_raw))) {
    throw std::invalid_argument("protocol: schedule machines must be >= 1");
  }
  auto machines = static_cast<std::size_t>(machines_raw);
  if (instance_machines && machines != *instance_machines) {
    throw std::invalid_argument(
        "protocol: schedule has " + std::to_string(machines) +
        " machines, its instance " + std::to_string(*instance_machines));
  }
  json::ArrayRef slices = value.at("slices").as_array();
  if (type == "exact") {
    Schedule schedule(machines);
    for (json::Ref row : slices) {
      json::ArrayRef fields = slice_fields(row);
      auto field = fields.begin();
      const std::size_t machine = slice_machine(*field, machines);
      Q start = Q::from_string((*++field).as_string());
      Q end = Q::from_string((*++field).as_string());
      Q speed = Q::from_string((*++field).as_string());
      schedule.add(machine, Slice{std::move(start), std::move(end), std::move(speed),
                                  slice_job(*++field)});
    }
    result.schedule = std::move(schedule);
  } else if (type == "fast") {
    FastSchedule schedule;
    schedule.machines.resize(machines);
    for (json::Ref row : slices) {
      json::ArrayRef fields = slice_fields(row);
      auto field = fields.begin();
      const std::size_t machine = slice_machine(*field, machines);
      const double start = finite_number(*++field, "slice start");
      const double end = finite_number(*++field, "slice end");
      const double speed = finite_number(*++field, "slice speed");
      schedule.machines[machine].push_back(
          FastSlice{start, end, speed, slice_job(*++field)});
    }
    result.schedule = std::move(schedule);
  } else {
    throw std::invalid_argument("protocol: unknown schedule type '" +
                                std::string(type) + "'");
  }
}

/// Parses a trace-context field: a full 64-bit value encoded as a decimal
/// string (doubles cannot carry ids above 2^53 exactly, so numbers are
/// rejected -- a client that sent one would get back corrupted parenting).
std::uint64_t trace_field(json::Ref value, const char* what) {
  if (!value.is_string()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        std::string("protocol: trace ") + what +
                            " must be a decimal string");
  }
  const std::string_view text = value.as_string();
  std::uint64_t parsed = 0;
  auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), parsed);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw ProtocolError(ErrorCode::kBadRequest,
                        std::string("protocol: trace ") + what +
                            " is not a 64-bit decimal value");
  }
  return parsed;
}

/// Opens a request or response object with its "v" and "id" members. The id
/// travels as a JSON number, which the decoders bound by 2^53.
void write_header(json::Writer& out, std::uint64_t id) {
  out.begin_object();
  out.key("v").integer(kProtocolVersion);
  out.key("id").number(static_cast<double>(id));
}

void write_response_header(json::Writer& out, std::uint64_t id, bool ok) {
  write_header(out, id);
  out.key("ok").boolean(ok);
}

void write_solve_options(json::Writer& out, const SolveOptions& options) {
  out.begin_object();
  out.key("engine").string(engine_name(options.engine));
  out.key("fast_epsilon").number(options.fast_epsilon);
  out.key("lp_grid").integer(options.lp_grid);
  out.key("lp_max_speed_hint").number(options.lp_max_speed_hint);
  out.end_object();
}

SolveOptions solve_options_from_json(json::Ref value) {
  SolveOptions options;
  if (std::optional<json::Ref> engine = value.find("engine")) {
    std::optional<Engine> parsed = engine_from_name(engine->as_string());
    if (!parsed) {
      throw std::invalid_argument("protocol: unknown engine '" +
                                  std::string(engine->as_string()) + "'");
    }
    options.engine = *parsed;
  }
  if (std::optional<json::Ref> v = value.find("fast_epsilon")) {
    options.fast_epsilon = v->as_double();
  }
  if (std::optional<json::Ref> v = value.find("lp_grid")) {
    options.lp_grid = static_cast<std::size_t>(
        checked_u64(v->as_double(), "lp_grid"));
  }
  if (std::optional<json::Ref> v = value.find("lp_max_speed_hint")) {
    options.lp_max_speed_hint = v->as_double();
  }
  return options;
}

SolveResult result_from_json(json::Ref value,
                             std::optional<std::size_t> instance_machines) {
  SolveResult result;
  const std::string_view status_name = value.at("status").as_string();
  std::optional<SolveStatus> status = solve_status_from_name(status_name);
  if (!status) {
    throw std::invalid_argument("protocol: unknown solve status '" +
                                std::string(status_name) + "'");
  }
  result.status = *status;
  result.error_detail = value.at("error_detail").as_string();
  result.energy = finite_number(value.at("energy"), "energy");
  schedule_from_json(value.at("schedule"), result, instance_machines);
  return result;
}

}  // namespace

const char* verb_name(Verb verb) {
  switch (verb) {
    case Verb::kSolve: return "solve";
    case Verb::kSolveMany: return "solve_many";
    case Verb::kStats: return "stats";
    case Verb::kHealth: return "health";
    case Verb::kMetrics: return "metrics";
    case Verb::kShutdown: return "shutdown";
  }
  return "unknown";
}

std::optional<Verb> verb_from_name(std::string_view name) {
  if (name == "solve") return Verb::kSolve;
  if (name == "solve_many") return Verb::kSolveMany;
  if (name == "stats") return Verb::kStats;
  if (name == "health") return Verb::kHealth;
  if (name == "metrics") return Verb::kMetrics;
  if (name == "shutdown") return Verb::kShutdown;
  return std::nullopt;
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadFrame: return "bad_frame";
    case ErrorCode::kBadRequest: return "bad_request";
    case ErrorCode::kUnsupportedVersion: return "unsupported_version";
    case ErrorCode::kUnknownVerb: return "unknown_verb";
    case ErrorCode::kQueueFull: return "queue_full";
    case ErrorCode::kShutdown: return "shutdown";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

std::optional<ErrorCode> error_code_from_name(std::string_view name) {
  if (name == "bad_frame") return ErrorCode::kBadFrame;
  if (name == "bad_request") return ErrorCode::kBadRequest;
  if (name == "unsupported_version") return ErrorCode::kUnsupportedVersion;
  if (name == "unknown_verb") return ErrorCode::kUnknownVerb;
  if (name == "queue_full") return ErrorCode::kQueueFull;
  if (name == "shutdown") return ErrorCode::kShutdown;
  if (name == "internal") return ErrorCode::kInternal;
  return std::nullopt;
}

void write_result(json::Writer& out, const SolveResult& result) {
  out.begin_object();
  out.key("status").string(solve_status_name(result.status));
  out.key("error_detail").string(result.error_detail);
  out.key("energy").number(result.energy);
  out.key("schedule");
  write_schedule(out, result);
  out.end_object();
}

std::string encode_request(const Request& request) {
  std::string text;
  json::Writer out(text);
  write_header(out, request.id);
  out.key("verb").string(verb_name(request.verb));
  if (request.verb == Verb::kSolve) {
    out.key("instance");
    write_instance(out, request.instances.at(0));
    out.key("options");
    write_solve_options(out, request.options);
  } else if (request.verb == Verb::kSolveMany) {
    out.key("instances").begin_array();
    for (const Instance& instance : request.instances) write_instance(out, instance);
    out.end_array();
    out.key("options");
    write_solve_options(out, request.options);
  }
  if (request.priority != 0) {
    out.key("priority").number(static_cast<double>(request.priority));
  }
  if (request.deadline_ms != 0) {
    out.key("deadline_ms").number(static_cast<double>(request.deadline_ms));
  }
  if (request.trace_id != 0) {
    out.key("trace").begin_object();
    out.key("id").string(std::to_string(request.trace_id));
    out.key("parent").string(std::to_string(request.parent_span));
    out.end_object();
  }
  out.end_object();
  return text;
}

Request decode_request(std::string_view payload) {
  return bad_request_scope([&] {
    json::Document parsed(payload);
    json::Ref document = parsed.root();
    check_version(document);
    Request request;
    request.id = id_from(document);
    const std::string_view verb = document.at("verb").as_string();
    std::optional<Verb> verb_parsed = verb_from_name(verb);
    if (!verb_parsed) {
      throw ProtocolError(ErrorCode::kUnknownVerb,
                          "protocol: unknown verb '" + std::string(verb) + "'");
    }
    request.verb = *verb_parsed;
    if (request.verb == Verb::kSolve) {
      request.instances.push_back(instance_from_json(document.at("instance")));
    } else if (request.verb == Verb::kSolveMany) {
      json::ArrayRef instances = document.at("instances").as_array();
      request.instances.reserve(instances.size());
      for (json::Ref element : instances) {
        request.instances.push_back(instance_from_json(element));
      }
    }
    if (std::optional<json::Ref> options = document.find("options")) {
      request.options = solve_options_from_json(*options);
    }
    if (std::optional<json::Ref> priority = document.find("priority")) {
      double raw = priority->as_double();
      if (!(raw >= -2147483648.0 && raw <= 2147483647.0 &&
            raw == std::floor(raw))) {
        throw ProtocolError(ErrorCode::kBadRequest,
                            "protocol: priority must be an integer in int range");
      }
      request.priority = static_cast<int>(raw);
    }
    if (std::optional<json::Ref> deadline = document.find("deadline_ms")) {
      double raw = deadline->as_double();
      // Accepting-direction check: NaN fails every comparison, so `raw < 0`
      // alone would wave NaN through to an undefined cast.
      if (!(raw >= 0.0 && raw <= kMaxExactDouble && raw == std::floor(raw))) {
        throw ProtocolError(ErrorCode::kBadRequest,
                            "protocol: deadline_ms must be >= 0");
      }
      request.deadline_ms = static_cast<std::int64_t>(raw);
    }
    if (std::optional<json::Ref> trace = document.find("trace")) {
      request.trace_id = trace_field(trace->at("id"), "id");
      if (std::optional<json::Ref> parent = trace->find("parent")) {
        request.parent_span = trace_field(*parent, "parent");
      }
    }
    return request;
  });
}

std::string encode_results_response(std::uint64_t id,
                                    std::span<const SolveResult> results) {
  std::string text;
  json::Writer out(text);
  write_response_header(out, id, true);
  out.key("results").begin_array();
  for (const SolveResult& result : results) write_result(out, result);
  out.end_array().end_object();
  return text;
}

std::string encode_results_response(std::uint64_t id,
                                    std::span<const std::string_view> result_objects) {
  std::string text;
  json::Writer out(text);
  write_response_header(out, id, true);
  out.key("results").begin_array();
  for (std::string_view object : result_objects) out.raw().append(object);
  out.end_array().end_object();
  return text;
}

std::string encode_payload_response(std::uint64_t id, std::string_view key,
                                    json::Value payload) {
  std::string text;
  json::Writer out(text);
  write_response_header(out, id, true);
  out.key(key).value(payload);
  out.end_object();
  return text;
}

std::string encode_error_response(std::uint64_t id, ErrorCode code,
                                  std::string_view detail) {
  std::string text;
  json::Writer out(text);
  write_response_header(out, id, false);
  out.key("error").begin_object();
  out.key("code").string(error_code_name(code));
  out.key("detail").string(detail);
  out.end_object().end_object();
  return text;
}

Response decode_response(std::string_view payload,
                         std::optional<std::span<const std::size_t>> machines) {
  return bad_request_scope([&] {
    json::Document parsed(payload);
    json::Ref document = parsed.root();
    check_version(document);
    Response response;
    response.id = id_from(document);
    response.ok = document.at("ok").as_bool();
    if (!response.ok) {
      json::Ref error = document.at("error");
      const std::string_view code = error.at("code").as_string();
      std::optional<ErrorCode> code_parsed = error_code_from_name(code);
      if (!code_parsed) {
        throw ProtocolError(ErrorCode::kBadRequest,
                            "protocol: unknown error code '" + std::string(code) + "'");
      }
      response.code = *code_parsed;
      response.detail = error.at("detail").as_string();
      return response;
    }
    if (std::optional<json::Ref> results = document.find("results")) {
      json::ArrayRef elements = results->as_array();
      if (machines && elements.size() != machines->size()) {
        throw std::invalid_argument(
            "protocol: " + std::to_string(elements.size()) + " results for " +
            std::to_string(machines->size()) + " instances");
      }
      response.results.reserve(elements.size());
      for (json::Ref element : elements) {
        std::optional<std::size_t> instance_machines;
        if (machines) instance_machines = (*machines)[response.results.size()];
        response.results.push_back(result_from_json(element, instance_machines));
      }
    } else {
      // Verb-shaped payload: keep the whole document for the caller.
      response.payload = document.to_value();
    }
    return response;
  });
}

}  // namespace mpss::net
