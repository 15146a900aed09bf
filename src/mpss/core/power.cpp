#include "mpss/core/power.hpp"

#include <cmath>
#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "mpss/util/error.hpp"
#include "mpss/util/fnv.hpp"

namespace mpss {

AlphaPower::AlphaPower(double alpha) : alpha_(alpha) {
  check_arg(alpha > 1.0, "AlphaPower: alpha must be > 1");
}

double AlphaPower::power(double speed) const { return std::pow(speed, alpha_); }

std::string AlphaPower::name() const {
  std::ostringstream os;
  os << "s^" << alpha_;
  return os.str();
}

std::uint64_t AlphaPower::fingerprint() const {
  return fnv_mix(fnv_mix(kFnvOffset, std::uint64_t{1}), alpha_);
}

PiecewiseLinearPower::PiecewiseLinearPower(std::vector<Point> points)
    : points_(std::move(points)) {
  check_arg(points_.size() >= 2, "PiecewiseLinearPower: need >= 2 breakpoints");
  double previous_slope = -1.0;
  for (std::size_t i = 1; i < points_.size(); ++i) {
    check_arg(points_[i].speed > points_[i - 1].speed,
              "PiecewiseLinearPower: speeds must strictly increase");
    check_arg(points_[i].power >= points_[i - 1].power,
              "PiecewiseLinearPower: powers must be non-decreasing");
    double slope = (points_[i].power - points_[i - 1].power) /
                   (points_[i].speed - points_[i - 1].speed);
    check_arg(slope >= previous_slope - 1e-12,
              "PiecewiseLinearPower: slopes must be non-decreasing (convexity)");
    previous_slope = slope;
  }
}

double PiecewiseLinearPower::power(double speed) const {
  if (speed <= points_.front().speed) return points_.front().power;
  std::size_t hi = 1;
  while (hi + 1 < points_.size() && points_[hi].speed < speed) ++hi;
  const Point& a = points_[hi - 1];
  const Point& b = points_[hi];
  double t = (speed - a.speed) / (b.speed - a.speed);
  return a.power + t * (b.power - a.power);  // extrapolates for speed > last point
}

std::string PiecewiseLinearPower::name() const {
  std::ostringstream os;
  os << "piecewise[" << points_.size() << "]";
  return os.str();
}

std::uint64_t PiecewiseLinearPower::fingerprint() const {
  std::uint64_t state = fnv_mix(kFnvOffset, std::uint64_t{2});
  state = fnv_mix(state, static_cast<std::uint64_t>(points_.size()));
  for (const Point& point : points_) {
    state = fnv_mix(state, point.speed);
    state = fnv_mix(state, point.power);
  }
  return state;
}

CubicPlusLeakagePower::CubicPlusLeakagePower(double cubic, double linear, double constant)
    : cubic_(cubic), linear_(linear), constant_(constant) {
  check_arg(cubic >= 0 && linear >= 0 && constant >= 0,
            "CubicPlusLeakagePower: coefficients must be non-negative");
}

double CubicPlusLeakagePower::power(double speed) const {
  return cubic_ * speed * speed * speed + linear_ * speed + constant_;
}

std::string CubicPlusLeakagePower::name() const {
  std::ostringstream os;
  os << cubic_ << "*s^3+" << linear_ << "*s+" << constant_;
  return os.str();
}

std::uint64_t CubicPlusLeakagePower::fingerprint() const {
  std::uint64_t state = fnv_mix(kFnvOffset, std::uint64_t{3});
  state = fnv_mix(state, cubic_);
  state = fnv_mix(state, linear_);
  return fnv_mix(state, constant_);
}

PowerSpec PowerSpec::alpha(double alpha) {
  (void)AlphaPower(alpha);  // validate now, not at solve time
  PowerSpec spec;
  spec.kind_ = Kind::kAlpha;
  spec.params_[0] = alpha;
  return spec;
}

PowerSpec PowerSpec::piecewise(std::vector<PiecewiseLinearPower::Point> points) {
  (void)PiecewiseLinearPower(points);
  PowerSpec spec;
  spec.kind_ = Kind::kPiecewise;
  spec.points_ = std::move(points);
  return spec;
}

PowerSpec PowerSpec::cubic_leakage(double cubic, double linear, double constant) {
  (void)CubicPlusLeakagePower(cubic, linear, constant);
  PowerSpec spec;
  spec.kind_ = Kind::kCubicLeakage;
  spec.params_[0] = cubic;
  spec.params_[1] = linear;
  spec.params_[2] = constant;
  return spec;
}

std::unique_ptr<PowerFunction> PowerSpec::instantiate() const {
  switch (kind_) {
    case Kind::kDefault: return std::make_unique<AlphaPower>(3.0);
    case Kind::kAlpha: return std::make_unique<AlphaPower>(params_[0]);
    case Kind::kPiecewise: return std::make_unique<PiecewiseLinearPower>(points_);
    case Kind::kCubicLeakage:
      return std::make_unique<CubicPlusLeakagePower>(params_[0], params_[1],
                                                     params_[2]);
  }
  throw std::invalid_argument("PowerSpec: unknown kind");
}

std::string PowerSpec::name() const { return instantiate()->name(); }

std::uint64_t PowerSpec::fingerprint() const {
  // kDefault delegates to AlphaPower(3)'s fingerprint: equal functions, equal
  // identity, regardless of how the spec was spelled.
  return instantiate()->fingerprint();
}

const char* PowerSpec::kind_name(Kind kind) {
  switch (kind) {
    case Kind::kDefault: return "default";
    case Kind::kAlpha: return "alpha";
    case Kind::kPiecewise: return "piecewise";
    case Kind::kCubicLeakage: return "cubic_leakage";
  }
  return "unknown";
}

PowerSpec::Kind PowerSpec::kind_from_name(std::string_view name) {
  if (name == "default") return Kind::kDefault;
  if (name == "alpha") return Kind::kAlpha;
  if (name == "piecewise") return Kind::kPiecewise;
  if (name == "cubic_leakage") return Kind::kCubicLeakage;
  throw std::invalid_argument("PowerSpec: unknown kind '" + std::string(name) + "'");
}

bool operator==(const PowerSpec& lhs, const PowerSpec& rhs) {
  if (lhs.kind_ != rhs.kind_) return false;
  switch (lhs.kind_) {
    case PowerSpec::Kind::kDefault: return true;
    case PowerSpec::Kind::kAlpha: return lhs.params_[0] == rhs.params_[0];
    case PowerSpec::Kind::kPiecewise: return lhs.points_ == rhs.points_;
    case PowerSpec::Kind::kCubicLeakage:
      return lhs.params_[0] == rhs.params_[0] && lhs.params_[1] == rhs.params_[1] &&
             lhs.params_[2] == rhs.params_[2];
  }
  return false;
}

}  // namespace mpss
