// Instance as a first-class value (S45): PowerSpec, equality, fingerprints,
// and the canonical JSON codec every text consumer shares.

#include <stdexcept>

#include <gtest/gtest.h>

#include "mpss/core/instance_json.hpp"
#include "mpss/core/job.hpp"
#include "mpss/core/power.hpp"
#include "mpss/solve.hpp"
#include "mpss/workload/generators.hpp"

namespace mpss {
namespace {

Instance small_instance() {
  return Instance({Job{Q(0), Q(8), Q(6)}, Job{Q(2), Q(4), Q(6)},
                   Job{Q(2), Q(4), Q(4)}},
                  2);
}

Instance fractional_instance() {
  return Instance({Job{Q(0), Q(1, 2), Q(2, 3)}, Job{Q(1, 3), Q(5, 6), Q(1, 7)},
                   Job{Q(1, 4), Q(2), Q(3, 2)}},
                  2);
}

// ---- PowerSpec -------------------------------------------------------------

TEST(PowerSpec, DefaultIsCubeAndFingerprintsLikeAlphaThree) {
  PowerSpec spec;
  EXPECT_TRUE(spec.is_default());
  EXPECT_EQ(spec.kind(), PowerSpec::Kind::kDefault);
  // kDefault instantiates P(s) = s^3, so it must hash like alpha(3): the
  // service cache treats "no spec" and "explicit cube" as the same work.
  EXPECT_EQ(spec.fingerprint(), PowerSpec::alpha(3.0).fingerprint());
  EXPECT_NE(spec.fingerprint(), 0u);
}

TEST(PowerSpec, FactoriesValidateEagerly) {
  EXPECT_NO_THROW(PowerSpec::alpha(2.5));
  EXPECT_THROW(PowerSpec::alpha(0.5), std::invalid_argument);
  EXPECT_THROW(PowerSpec::piecewise({}), std::invalid_argument);
  EXPECT_NO_THROW(PowerSpec::cubic_leakage(1.0, 0.5, 0.25));
}

TEST(PowerSpec, InstantiateMatchesTheUnderlyingFunction) {
  auto p = PowerSpec::alpha(2.0).instantiate();
  EXPECT_DOUBLE_EQ(p->power(3.0), 9.0);
  auto leaky = PowerSpec::cubic_leakage(1.0, 0.5, 0.25).instantiate();
  EXPECT_DOUBLE_EQ(leaky->power(2.0), 8.0 + 1.0 + 0.25);
}

TEST(PowerSpec, KindNamesRoundTrip) {
  for (PowerSpec::Kind kind :
       {PowerSpec::Kind::kDefault, PowerSpec::Kind::kAlpha,
        PowerSpec::Kind::kPiecewise, PowerSpec::Kind::kCubicLeakage}) {
    EXPECT_EQ(PowerSpec::kind_from_name(PowerSpec::kind_name(kind)), kind);
  }
  EXPECT_THROW((void)PowerSpec::kind_from_name("nope"), std::invalid_argument);
}

TEST(PowerSpec, EqualityComparesKindAndParameters) {
  EXPECT_EQ(PowerSpec::alpha(2.0), PowerSpec::alpha(2.0));
  EXPECT_NE(PowerSpec::alpha(2.0), PowerSpec::alpha(3.0));
  EXPECT_NE(PowerSpec{}, PowerSpec::alpha(3.0));  // distinct kinds, same P
  EXPECT_EQ(PowerSpec::cubic_leakage(1, 2, 3), PowerSpec::cubic_leakage(1, 2, 3));
}

// ---- Instance value semantics ---------------------------------------------

TEST(InstanceValue, EqualityAndPowerAccessors) {
  Instance a = small_instance();
  Instance b = small_instance();
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a.power().is_default());

  Instance c = a.with_power(PowerSpec::alpha(2.0));
  EXPECT_NE(a, c);
  EXPECT_EQ(c.power(), PowerSpec::alpha(2.0));
  // with_power leaves jobs and machines untouched.
  EXPECT_EQ(c.size(), a.size());
  EXPECT_EQ(c.machines(), a.machines());
}

TEST(InstanceValue, FingerprintIsStableAndDiscriminates) {
  Instance a = small_instance();
  EXPECT_EQ(a.fingerprint(), small_instance().fingerprint());
  EXPECT_NE(a.fingerprint(), 0u);

  EXPECT_NE(a.fingerprint(), a.with_machines(3).fingerprint());
  EXPECT_NE(a.fingerprint(),
            a.with_power(PowerSpec::alpha(2.0)).fingerprint());
  Instance different_jobs({Job{Q(0), Q(8), Q(6)}, Job{Q(2), Q(4), Q(6)},
                           Job{Q(2), Q(4), Q(5)}},
                          2);
  EXPECT_NE(a.fingerprint(), different_jobs.fingerprint());
}

TEST(InstanceValue, DerivedInstancesCarryThePowerSpec) {
  Instance a = fractional_instance().with_power(PowerSpec::alpha(2.0));
  EXPECT_EQ(a.with_machines(4).power(), PowerSpec::alpha(2.0));
  EXPECT_EQ(a.scaled_to_integral_times().power(), PowerSpec::alpha(2.0));
}

// ---- JSON codec ------------------------------------------------------------

TEST(InstanceJson, RoundTripIsBitExact) {
  Instance original = fractional_instance().with_power(PowerSpec::alpha(2.0));
  Instance decoded = instance_from_json(instance_to_json(original));
  EXPECT_EQ(original, decoded);
  EXPECT_EQ(original.fingerprint(), decoded.fingerprint());
  // Canonical form: serializing the decoded copy reproduces the text.
  EXPECT_EQ(instance_to_json(original), instance_to_json(decoded));
}

TEST(InstanceJson, CanonicalDocumentShape) {
  Instance instance({Job{Q(0), Q(1, 2), Q(2, 3)}}, 2);
  EXPECT_EQ(instance_to_json(instance),
            R"({"mpss_instance":1,"machines":2,"power":{"kind":"default"},)"
            R"("jobs":[["0","1/2","2/3"]]})");
}

TEST(InstanceJson, PowerMemberIsOptionalOnInput) {
  Instance decoded = instance_from_json(
      R"({"mpss_instance":1,"machines":1,"jobs":[["0","1","1"]]})");
  EXPECT_TRUE(decoded.power().is_default());
}

TEST(InstanceJson, EveryPowerKindRoundTrips) {
  std::vector<PowerSpec> specs = {
      PowerSpec{}, PowerSpec::alpha(2.5),
      PowerSpec::piecewise({{0.0, 0.0}, {1.0, 1.0}, {2.0, 8.0}}),
      PowerSpec::cubic_leakage(1.0, 0.5, 0.25)};
  for (const PowerSpec& spec : specs) {
    Instance instance({Job{Q(0), Q(1), Q(1)}}, 1, spec);
    PowerSpec decoded = instance_from_json(instance_to_json(instance)).power();
    EXPECT_EQ(spec, decoded) << spec.name();
  }
}

TEST(InstanceJson, RejectsMalformedDocuments) {
  // Wrong version.
  EXPECT_THROW(instance_from_json(
                   R"({"mpss_instance":2,"machines":1,"jobs":[]})"),
               std::invalid_argument);
  // Missing version.
  EXPECT_THROW(instance_from_json(R"({"machines":1,"jobs":[]})"),
               std::invalid_argument);
  // Zero machines (Instance validation).
  EXPECT_THROW(instance_from_json(
                   R"({"mpss_instance":1,"machines":0,"jobs":[["0","1","1"]]})"),
               std::invalid_argument);
  // Rational with a zero denominator must surface as invalid_argument.
  EXPECT_THROW(instance_from_json(
                   R"({"mpss_instance":1,"machines":1,"jobs":[["0","1/0","1"]]})"),
               std::invalid_argument);
  // Numbers instead of rational strings (doubles are not exact-safe).
  EXPECT_THROW(instance_from_json(
                   R"({"mpss_instance":1,"machines":1,"jobs":[[0,1,1]]})"),
               std::invalid_argument);
  // A job that fails Instance validation (release >= deadline).
  EXPECT_THROW(instance_from_json(
                   R"({"mpss_instance":1,"machines":1,"jobs":[["2","1","1"]]})"),
               std::invalid_argument);
  // Not JSON at all.
  EXPECT_THROW(instance_from_json("release,deadline,work"),
               std::invalid_argument);
}

TEST(InstanceJson, GeneratedInstancesRoundTrip) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Instance original = generate_uniform(
        {.jobs = 12, .machines = 3, .horizon = 20, .max_window = 9,
         .max_work = 7},
        seed);
    Instance decoded = instance_from_json(instance_to_json(original));
    EXPECT_EQ(original, decoded);
  }
}

TEST(InstanceJson, FileRoundTripKeepsThePowerSpec) {
  Instance original = fractional_instance().with_power(PowerSpec::alpha(2.0));
  std::string path = testing::TempDir() + "mpss_instance_roundtrip.json";
  save_instance(original, path);
  EXPECT_EQ(load_instance(path), original);
  EXPECT_EQ(load_instance(path).power(), PowerSpec::alpha(2.0));
  EXPECT_THROW((void)load_instance("/nonexistent/path.json"), std::runtime_error);
}

// ---- facade integration ----------------------------------------------------

TEST(InstancePower, SolveUsesTheInstanceSpec) {
  Instance cube = small_instance();  // default spec: P(s) = s^3
  Instance square = cube.with_power(PowerSpec::alpha(2.0));
  SolveResult cube_result = solve(cube);
  SolveResult square_result = solve(square);
  ASSERT_TRUE(cube_result.ok());
  ASSERT_TRUE(square_result.ok());
  // Same schedule (power-independent), different measured energy.
  EXPECT_NE(cube_result.energy, square_result.energy);

  // An explicit options.power still overrides the spec (the escape hatch).
  AlphaPower p(3.0);
  SolveOptions options;
  options.power = &p;
  EXPECT_DOUBLE_EQ(solve(square, options).energy, cube_result.energy);
}

TEST(InstancePower, ErrorDetailIsEmptyExactlyWhenOk) {
  SolveResult ok = solve(small_instance());
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(ok.error_detail.empty());

  SolveOptions bad;
  bad.lp_grid = 1;  // validate() rejects lp_grid < 2
  bad.engine = Engine::kLp;
  SolveResult invalid = solve(small_instance(), bad);
  EXPECT_EQ(invalid.status, SolveStatus::kInvalidOptions);
  EXPECT_FALSE(invalid.error_detail.empty());
}

}  // namespace
}  // namespace mpss
