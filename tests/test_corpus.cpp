// Golden regression corpus: checked-in instances with checked-in EXACT optimal
// per-job speeds (regenerate with tools/make_corpus after intentional algorithm
// changes). Any refactor of the offline algorithm that alters an output breaks
// these tests with a precise diff, and every schedule must pass the optimality
// certificate (core/certify.hpp), which checks it without the engine's logic.

#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "corpus.hpp"
#include "mpss/core/certify.hpp"
#include "mpss/core/instance_json.hpp"
#include "mpss/core/optimal.hpp"
#include "mpss/util/csv.hpp"

namespace mpss {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

class Corpus : public testing::TestWithParam<std::string> {};

TEST_P(Corpus, OptimalSpeedsMatchGoldenExactly) {
  Instance instance = corpus::load(GetParam());
  auto golden_rows = parse_csv(read_file(corpus::path(GetParam(), ".golden.csv")));
  ASSERT_GE(golden_rows.size(), 1u);
  ASSERT_EQ(golden_rows[0], (std::vector<std::string>{"job", "speed"}));
  ASSERT_EQ(golden_rows.size(), instance.size() + 1);

  auto result = optimal_schedule(instance);
  // Feasible, and optimal for every convex non-decreasing P.
  std::optional<std::string> failure = certify_optimal(instance, result.schedule);
  ASSERT_FALSE(failure.has_value()) << GetParam() << ": " << *failure;
  for (std::size_t row = 1; row < golden_rows.size(); ++row) {
    ASSERT_EQ(golden_rows[row].size(), 2u);
    auto job = static_cast<std::size_t>(std::stoull(golden_rows[row][0]));
    Q expected = Q::from_string(golden_rows[row][1]);
    EXPECT_EQ(result.speed_of_job(job), expected)
        << GetParam() << " job " << job << ": got "
        << result.speed_of_job(job).to_string() << ", golden "
        << expected.to_string();
  }
}

// The BigInt small-value fast path is an internal representation change only:
// replaying the whole corpus with the limb path forced must reproduce the
// golden per-job speeds bit-for-bit (same canonical num/den strings).
TEST_P(Corpus, ForcedLimbPathIsBitIdenticalToTheSmallPath) {
  Instance instance = corpus::load(GetParam());

  auto small = optimal_schedule(instance);
  BigInt::set_test_force_big(true);
  auto forced = optimal_schedule(instance);
  BigInt::set_test_force_big(false);

  ASSERT_EQ(small.phases.size(), forced.phases.size());
  for (std::size_t job = 0; job < instance.size(); ++job) {
    EXPECT_EQ(small.speed_of_job(job).to_string(),
              forced.speed_of_job(job).to_string())
        << GetParam() << " job " << job;
  }
  AlphaPower cube(3.0);
  EXPECT_EQ(small.schedule.energy(cube), forced.schedule.energy(cube))
      << GetParam();
}

// The stored instances are the canonical JSON documents (the wire protocol's
// test vectors): re-encoding one reproduces its file byte for byte.
TEST_P(Corpus, InstanceFileIsCanonicalJson) {
  EXPECT_EQ(read_file(corpus::path(GetParam())),
            instance_to_json(corpus::load(GetParam())) + "\n")
      << GetParam();
}

TEST(CorpusMeta, CorpusIsNonEmpty) { EXPECT_GE(corpus::names().size(), 8u); }

INSTANTIATE_TEST_SUITE_P(GoldenInstances, Corpus, testing::ValuesIn(corpus::names()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace mpss
