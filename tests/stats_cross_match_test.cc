#include "stats/cross_match.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

namespace deepaqp::stats {
namespace {

std::vector<std::vector<double>> GaussianCloud(size_t n, size_t dim,
                                               double mean, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> pts(n, std::vector<double>(dim));
  for (auto& p : pts) {
    for (double& v : p) v = rng.Gaussian(mean, 1.0);
  }
  return pts;
}

TEST(CrossMatchNullTest, PmfSumsToOne) {
  for (auto [n1, n2] : std::vector<std::pair<int, int>>{
           {4, 4}, {6, 10}, {10, 10}, {15, 17}}) {
    double total = 0.0;
    for (int a = 0; a <= std::min(n1, n2); ++a) {
      total += CrossMatchNullPmf(n1, n2, a);
    }
    EXPECT_NEAR(total, 1.0, 1e-9) << n1 << "," << n2;
  }
}

TEST(CrossMatchNullTest, ParityInfeasibleIsZero) {
  // n1 = 4: a must be even.
  EXPECT_EQ(CrossMatchNullPmf(4, 4, 1), 0.0);
  EXPECT_GT(CrossMatchNullPmf(4, 4, 2), 0.0);
  EXPECT_EQ(CrossMatchNullPmf(4, 4, 6), 0.0);  // a > min(n1, n2)
  EXPECT_EQ(CrossMatchNullPmf(4, 4, -2), 0.0);
}

TEST(CrossMatchNullTest, MatchesHandComputedCase) {
  // n1 = n2 = 2 (N = 4, 2 pairs): feasible a in {0, 2}.
  // P(a=0): both pairs within-sample = 2^0 * 2! / (C(4,2) * 1! * 1! * 0!)
  //       = 2 / 6 = 1/3. P(a=2) = 2/3.
  EXPECT_NEAR(CrossMatchNullPmf(2, 2, 0), 1.0 / 3, 1e-12);
  EXPECT_NEAR(CrossMatchNullPmf(2, 2, 2), 2.0 / 3, 1e-12);
}

TEST(CrossMatchNullTest, MeanMatchesTheory) {
  const int n1 = 10, n2 = 14;
  double mean = 0.0;
  for (int a = 0; a <= n1; ++a) {
    mean += a * CrossMatchNullPmf(n1, n2, a);
  }
  EXPECT_NEAR(mean, static_cast<double>(n1) * n2 / (n1 + n2 - 1), 1e-9);
}

TEST(CrossMatchTest, RejectsTooSmallSamples) {
  util::Rng rng(1);
  auto a = GaussianCloud(1, 2, 0, 2);
  auto b = GaussianCloud(10, 2, 0, 3);
  EXPECT_FALSE(CrossMatchTest(a, b, rng).ok());
}

TEST(CrossMatchTest, NonFinitePointIsInvalidArgumentAtBothMatcherSizes) {
  // 8 + 8 pooled points take the exact matcher, 20 + 20 the greedy + 3-opt
  // one; a single bad coordinate must fail the test, not the process.
  for (size_t per_side : {8u, 20u}) {
    for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
      auto a = GaussianCloud(per_side, 3, 0.0, 21);
      auto b = GaussianCloud(per_side, 3, 0.0, 22);
      b[per_side / 2][1] = bad;
      util::Rng rng(5);
      auto result = CrossMatchTest(a, b, rng);
      ASSERT_FALSE(result.ok()) << per_side << " per side";
      EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
    }
  }
}

TEST(CrossMatchTest, RaggedPointsAreInvalidArgument) {
  auto a = GaussianCloud(8, 3, 0.0, 23);
  auto b = GaussianCloud(8, 3, 0.0, 24);
  b[3].pop_back();
  util::Rng rng(6);
  auto result = CrossMatchTest(a, b, rng);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(CrossMatchTest, SameDistributionUsuallyPasses) {
  int rejections = 0;
  const int trials = 20;
  for (int i = 0; i < trials; ++i) {
    util::Rng rng(100 + i);
    auto a = GaussianCloud(40, 3, 0.0, 200 + i);
    auto b = GaussianCloud(40, 3, 0.0, 300 + i);
    auto result = CrossMatchTest(a, b, rng);
    ASSERT_TRUE(result.ok());
    if (result->Reject(0.05)) ++rejections;
  }
  // Nominal 5% false-positive rate; allow slack.
  EXPECT_LE(rejections, 4);
}

TEST(CrossMatchTest, SeparatedDistributionsAreDetected) {
  int rejections = 0;
  const int trials = 10;
  for (int i = 0; i < trials; ++i) {
    util::Rng rng(400 + i);
    auto a = GaussianCloud(40, 3, 0.0, 500 + i);
    auto b = GaussianCloud(40, 3, 3.0, 600 + i);  // 3-sigma shifted
    auto result = CrossMatchTest(a, b, rng);
    ASSERT_TRUE(result.ok());
    if (result->Reject(0.05)) ++rejections;
    // With a 3-sigma shift, nearly all pairs are within-sample.
    EXPECT_LT(result->a_dm, result->expected_a_dm);
  }
  EXPECT_GE(rejections, 9);
}

TEST(CrossMatchTest, PinnedPValuesAtAlgorithmOneSize) {
  // 128 points per side, as Algorithm 1 tests, the second cloud shifted by
  // 0, 0.2 and 0.5. Recorded while 3-opt still ran the bitmask DP on each
  // six-node block; the matching decides a_dm and so the p-value.
  const struct {
    double shift;
    int a_dm;
    double p_value;
  } want[] = {{0.0, 60, 0x1.213c678b9193fp-2},
              {0.2, 58, 0x1.68d88a746fffp-3},
              {0.5, 46, 0x1.16234644634dp-10}};
  for (const auto& w : want) {
    util::Rng rng(3);
    auto result = CrossMatchTest(GaussianCloud(128, 5, 0.0, 71),
                                 GaussianCloud(128, 5, w.shift, 72), rng);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->a_dm, w.a_dm) << "shift " << w.shift;
    EXPECT_EQ(result->p_value, w.p_value) << "shift " << w.shift;
  }
}

TEST(CrossMatchTest, PairCountsAreConsistent) {
  util::Rng rng(7);
  auto a = GaussianCloud(15, 2, 0.0, 8);
  auto b = GaussianCloud(17, 2, 0.0, 9);  // pooled 32 -> even, no drop
  auto result = CrossMatchTest(a, b, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(2 * result->a_dd + result->a_dm, 15);
  EXPECT_EQ(2 * result->a_mm + result->a_dm, 17);
}

TEST(CrossMatchTest, OddPoolDropsOnePoint) {
  util::Rng rng(11);
  auto a = GaussianCloud(8, 2, 0.0, 12);
  auto b = GaussianCloud(7, 2, 0.0, 13);  // pooled 15 -> drop one
  auto result = CrossMatchTest(a, b, rng);
  ASSERT_TRUE(result.ok());
  const int covered = 2 * (result->a_dd + result->a_mm + result->a_dm);
  EXPECT_EQ(covered, 14);
  EXPECT_GE(result->p_value, 0.0);
  EXPECT_LE(result->p_value, 1.0);
}

TEST(CrossMatchTest, PValueUnderNullIsRoughlyUniform) {
  // Property check on the exact-matching branch (pooled n <= 20): under H0
  // the p-value should not concentrate near 0.
  int small_p = 0;
  const int trials = 40;
  for (int i = 0; i < trials; ++i) {
    util::Rng rng(700 + i);
    auto a = GaussianCloud(8, 2, 0.0, 800 + i);
    auto b = GaussianCloud(8, 2, 0.0, 900 + i);
    auto result = CrossMatchTest(a, b, rng);
    ASSERT_TRUE(result.ok());
    if (result->p_value < 0.1) ++small_p;
  }
  EXPECT_LE(small_p, 10);
}

}  // namespace
}  // namespace deepaqp::stats
