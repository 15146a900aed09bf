#include "mpss/core/instance_json.hpp"

#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "mpss/util/error.hpp"

namespace mpss {
namespace {

Q q_from_json(json::Ref value, const char* field) {
  if (!value.is_string()) {
    throw std::invalid_argument(std::string("instance_from_json: ") + field +
                                " must be a rational string (\"a\" or \"a/b\")");
  }
  try {
    return Q::from_string(value.as_string());
  } catch (const std::domain_error& error) {  // zero denominator
    throw std::invalid_argument(std::string("instance_from_json: bad ") + field +
                                ": " + error.what());
  }
}

void write_power_spec(json::Writer& out, const PowerSpec& spec) {
  out.begin_object();
  out.key("kind").string(PowerSpec::kind_name(spec.kind()));
  switch (spec.kind()) {
    case PowerSpec::Kind::kDefault: break;
    case PowerSpec::Kind::kAlpha:
      out.key("alpha").number(spec.alpha_value());
      break;
    case PowerSpec::Kind::kPiecewise:
      out.key("points").begin_array();
      for (const PiecewiseLinearPower::Point& point : spec.points()) {
        out.begin_array().number(point.speed).number(point.power).end_array();
      }
      out.end_array();
      break;
    case PowerSpec::Kind::kCubicLeakage:
      out.key("cubic").number(spec.cubic());
      out.key("linear").number(spec.linear());
      out.key("constant").number(spec.constant());
      break;
  }
  out.end_object();
}

PowerSpec power_spec_from_json(json::Ref value) {
  PowerSpec::Kind kind = PowerSpec::kind_from_name(value.at("kind").as_string());
  switch (kind) {
    case PowerSpec::Kind::kDefault: return PowerSpec{};
    case PowerSpec::Kind::kAlpha:
      return PowerSpec::alpha(value.at("alpha").as_double());
    case PowerSpec::Kind::kPiecewise: {
      std::vector<PiecewiseLinearPower::Point> points;
      for (json::Ref element : value.at("points").as_array()) {
        json::ArrayRef pair = element.as_array();
        check_arg(pair.size() == 2,
                  "power_spec_from_json: points must be [speed, power] pairs");
        points.push_back({pair[0].as_double(), pair[1].as_double()});
      }
      return PowerSpec::piecewise(std::move(points));
    }
    case PowerSpec::Kind::kCubicLeakage:
      return PowerSpec::cubic_leakage(value.at("cubic").as_double(),
                                      value.at("linear").as_double(),
                                      value.at("constant").as_double());
  }
  throw std::invalid_argument("power_spec_from_json: unknown kind");
}

}  // namespace

void write_rational(json::Writer& out, const Q& value) {
  std::string& text = out.raw();
  text.push_back('"');
  value.append_to(text);
  text.push_back('"');
}

void write_instance(json::Writer& out, const Instance& instance) {
  out.begin_object();
  out.key("mpss_instance").integer(kInstanceJsonVersion);
  out.key("machines").integer(instance.machines());
  out.key("power");
  write_power_spec(out, instance.power());
  out.key("jobs").begin_array();
  for (const Job& job : instance.jobs()) {
    out.begin_array();
    write_rational(out, job.release);
    write_rational(out, job.deadline);
    write_rational(out, job.work);
    out.end_array();
  }
  out.end_array().end_object();
}

Instance instance_from_json(json::Ref value) {
  double version = value.at("mpss_instance").as_double();
  check_arg(version == static_cast<double>(kInstanceJsonVersion),
            "instance_from_json: unsupported mpss_instance version");
  double machines_raw = value.at("machines").as_double();
  // Bound BEFORE casting: double -> size_t on a value past the integer range
  // (an attacker's "machines": 1e300, or inf) is undefined behavior, so the
  // old `raw == cast(raw)` round-trip check was itself the bug. 2^53 is where
  // doubles stop holding integers exactly; no instance is near that.
  constexpr double kMaxMachines = 9007199254740992.0;  // 2^53
  check_arg(machines_raw >= 1.0 && machines_raw <= kMaxMachines &&
                machines_raw == std::floor(machines_raw),
            "instance_from_json: machines must be a positive integer");
  auto machines = static_cast<std::size_t>(machines_raw);

  PowerSpec power;  // "power" is optional on input; absent means the default
  if (std::optional<json::Ref> spec = value.find("power")) {
    power = power_spec_from_json(*spec);
  }

  std::vector<Job> jobs;
  json::ArrayRef rows = value.at("jobs").as_array();
  jobs.reserve(rows.size());
  for (json::Ref row : rows) {
    json::ArrayRef fields = row.as_array();
    check_arg(fields.size() == 3,
              "instance_from_json: jobs must be [release, deadline, work] triples");
    jobs.push_back(Job{q_from_json(fields[0], "release"),
                       q_from_json(fields[1], "deadline"),
                       q_from_json(fields[2], "work")});
  }
  return Instance(std::move(jobs), machines, std::move(power));
}

std::string instance_to_json(const Instance& instance) {
  std::string text;
  json::Writer out(text);
  write_instance(out, instance);
  return text;
}

Instance instance_from_json(std::string_view text) {
  json::Document document(text);
  return instance_from_json(document.root());
}

void save_instance(const Instance& instance, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_instance: cannot open " + path);
  out << instance_to_json(instance) << "\n";
  if (!out) throw std::runtime_error("save_instance: write failed for " + path);
}

Instance load_instance(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_instance: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return instance_from_json(buffer.str());
}

}  // namespace mpss
