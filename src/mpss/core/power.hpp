#pragma once
// Power functions P(s) (substrate, see DESIGN.md).
//
// The paper's offline algorithm works for any convex non-decreasing P; the online
// analyses use P(s) = s^alpha with alpha > 1. Schedules are computed exactly
// (speeds are rationals chosen independently of P's values -- only convexity and
// monotonicity matter), and P is evaluated in double only when *measuring* energy.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mpss {

/// Convex non-decreasing power function interface. Implementations must satisfy
/// P(s) >= 0, P non-decreasing and convex on s >= 0; the library relies on these
/// properties but cannot verify them for arbitrary callables.
class PowerFunction {
 public:
  virtual ~PowerFunction() = default;

  /// Power drawn at speed `speed` (speed >= 0).
  [[nodiscard]] virtual double power(double speed) const = 0;

  /// Descriptive name for tables ("s^3", "piecewise[4]").
  [[nodiscard]] virtual std::string name() const = 0;

  /// Stable value-identity fingerprint for result caching (BatchSolver keys
  /// solve results on it). Two instances with equal fingerprints must define
  /// the same function. The default 0 means "no stable identity" -- the cache
  /// skips such power functions rather than risk a false hit. The built-in
  /// implementations hash their defining parameters.
  [[nodiscard]] virtual std::uint64_t fingerprint() const { return 0; }
};

/// P(s) = s^alpha, alpha > 1: the family used throughout Section 3 of the paper
/// (generalizing the cube-root rule alpha = 3).
class AlphaPower final : public PowerFunction {
 public:
  /// Throws std::invalid_argument unless alpha > 1.
  explicit AlphaPower(double alpha);

  [[nodiscard]] double alpha() const { return alpha_; }
  [[nodiscard]] double power(double speed) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint64_t fingerprint() const override;

 private:
  double alpha_;
};

/// Convex piecewise-linear power function given as breakpoints
/// (speed_0, power_0), ..., strictly increasing in speed. Evaluation extrapolates
/// the last segment beyond the final breakpoint. Used to exercise the offline
/// algorithm's "general convex non-decreasing P" claim.
class PiecewiseLinearPower final : public PowerFunction {
 public:
  struct Point {
    double speed;
    double power;

    friend bool operator==(const Point&, const Point&) = default;
  };

  /// Throws std::invalid_argument unless there are >= 2 points, speeds strictly
  /// increase, powers are non-decreasing, and slopes are non-decreasing (convex).
  explicit PiecewiseLinearPower(std::vector<Point> points);

  [[nodiscard]] double power(double speed) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint64_t fingerprint() const override;

 private:
  std::vector<Point> points_;
};

/// P(s) = a*s^3 + b*s + c with a,b,c >= 0: a classic CMOS-flavoured model
/// (dynamic cubic term + leakage-ish linear/constant terms); convex and
/// non-decreasing for s >= 0.
class CubicPlusLeakagePower final : public PowerFunction {
 public:
  CubicPlusLeakagePower(double cubic, double linear, double constant);

  [[nodiscard]] double power(double speed) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint64_t fingerprint() const override;

 private:
  double cubic_, linear_, constant_;
};

/// Serializable *description* of a power function -- the value-type counterpart
/// of the PowerFunction interface (S45, see DESIGN.md). A PowerFunction is a
/// callable with identity by pointer; a PowerSpec is plain data with identity
/// by value, so it can live inside an Instance, travel over the wire protocol,
/// and key the result cache. Every spec instantiates to one of the built-in
/// PowerFunction implementations; arbitrary user callables stay possible
/// through SolveOptions::power, which overrides the instance's spec.
class PowerSpec {
 public:
  enum class Kind {
    kDefault,       // P(s) = s^3, the library default
    kAlpha,         // AlphaPower(alpha)
    kPiecewise,     // PiecewiseLinearPower(points)
    kCubicLeakage,  // CubicPlusLeakagePower(cubic, linear, constant)
  };

  /// The default spec: P(s) = s^3.
  PowerSpec() = default;

  /// Factories validate eagerly by constructing the underlying PowerFunction
  /// once, so an invalid spec throws std::invalid_argument at creation, not at
  /// solve time (the same messages as the PowerFunction constructors).
  [[nodiscard]] static PowerSpec alpha(double alpha);
  [[nodiscard]] static PowerSpec piecewise(
      std::vector<PiecewiseLinearPower::Point> points);
  [[nodiscard]] static PowerSpec cubic_leakage(double cubic, double linear,
                                               double constant);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_default() const { return kind_ == Kind::kDefault; }

  /// Parameter accessors; meaningful only for the matching kind.
  [[nodiscard]] double alpha_value() const { return params_[0]; }
  [[nodiscard]] double cubic() const { return params_[0]; }
  [[nodiscard]] double linear() const { return params_[1]; }
  [[nodiscard]] double constant() const { return params_[2]; }
  [[nodiscard]] const std::vector<PiecewiseLinearPower::Point>& points() const {
    return points_;
  }

  /// Builds the described PowerFunction (kDefault -> AlphaPower(3)).
  [[nodiscard]] std::unique_ptr<PowerFunction> instantiate() const;

  /// Same naming as the instantiated function ("s^3", "piecewise[4]").
  [[nodiscard]] std::string name() const;

  /// Stable value-identity fingerprint; never 0 (a spec always has a stable
  /// identity -- that is its reason to exist). kDefault and alpha(3) fingerprint
  /// identically: they describe the same function.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Stable kind name ("default", "alpha", "piecewise", "cubic_leakage") and
  /// its inverse (nullptr-free: throws std::invalid_argument on unknown names);
  /// the JSON codec's tags.
  [[nodiscard]] static const char* kind_name(Kind kind);
  [[nodiscard]] static Kind kind_from_name(std::string_view name);

  friend bool operator==(const PowerSpec& lhs, const PowerSpec& rhs);

 private:
  Kind kind_ = Kind::kDefault;
  double params_[3] = {0.0, 0.0, 0.0};
  std::vector<PiecewiseLinearPower::Point> points_;
};

}  // namespace mpss
