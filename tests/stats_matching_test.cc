#include "stats/matching.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace deepaqp::stats {
namespace {

void ExpectValidMatching(const std::vector<int>& mate) {
  for (size_t i = 0; i < mate.size(); ++i) {
    ASSERT_GE(mate[i], 0);
    ASSERT_LT(static_cast<size_t>(mate[i]), mate.size());
    EXPECT_NE(static_cast<size_t>(mate[i]), i);
    EXPECT_EQ(static_cast<size_t>(mate[mate[i]]), i);
  }
}

DistanceMatrix RandomEuclideanInstance(size_t n, size_t dim,
                                       uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> points(n, std::vector<double>(dim));
  for (auto& p : points) {
    for (double& v : p) v = rng.Gaussian(0, 1);
  }
  return EuclideanDistances(points);
}

TEST(MatchingTest, RejectsOddOrEmptyInput) {
  EXPECT_FALSE(MinWeightPerfectMatching({}).ok());
  DistanceMatrix odd(3, std::vector<double>(3, 1.0));
  EXPECT_FALSE(MinWeightPerfectMatching(odd).ok());
  DistanceMatrix ragged = {{0, 1}, {1}};
  EXPECT_FALSE(MinWeightPerfectMatching(ragged).ok());
}

TEST(MatchingTest, NonFiniteDistanceIsInvalidArgumentNotAbort) {
  // A NaN weight breaks the greedy sort's ordering and leaves the exact
  // solver's DP states unreachable; both solvers refuse it up front. 16
  // nodes is an exact-solver size, 40 a greedy + 3-opt one.
  for (size_t n : {16u, 40u}) {
    for (double bad : {std::nan(""), std::numeric_limits<double>::infinity()}) {
      DistanceMatrix d = RandomEuclideanInstance(n, 3, 31);
      d[2][5] = d[5][2] = bad;
      auto greedy = MinWeightPerfectMatching(d);
      ASSERT_FALSE(greedy.ok()) << n;
      EXPECT_EQ(greedy.status().code(), util::StatusCode::kInvalidArgument);
      if (n <= 22) {
        auto exact = ExactMinWeightPerfectMatching(d);
        ASSERT_FALSE(exact.ok()) << n;
        EXPECT_EQ(exact.status().code(), util::StatusCode::kInvalidArgument);
      }
    }
  }
}

TEST(MatchingTest, OverflowingWeightIsAnErrorNotAnAbort) {
  // Finite weights whose sum overflows to +inf leave the full matching
  // unreachable in the exact DP. 24 nodes take greedy + 2-opt + 3-opt,
  // whose six-node sub-solve returns the same error.
  const double huge = std::numeric_limits<double>::max();
  for (size_t n : {4u, 24u}) {
    DistanceMatrix d(n, std::vector<double>(n, huge));
    for (size_t i = 0; i < n; ++i) d[i][i] = 0.0;
    auto mate = n <= 22 ? ExactMinWeightPerfectMatching(d)
                        : MinWeightPerfectMatching(d);
    ASSERT_FALSE(mate.ok()) << n;
    EXPECT_EQ(mate.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(MatchingTest, TrivialTwoNodes) {
  DistanceMatrix d = {{0, 5}, {5, 0}};
  auto mate = MinWeightPerfectMatching(d);
  ASSERT_TRUE(mate.ok());
  EXPECT_EQ((*mate)[0], 1);
  EXPECT_EQ((*mate)[1], 0);
  EXPECT_DOUBLE_EQ(MatchingWeight(d, *mate), 5.0);
}

TEST(MatchingTest, FourNodeKnownOptimum) {
  // Nodes on a line at 0, 1, 10, 11: optimal pairs (0,1) and (2,3).
  std::vector<std::vector<double>> pts = {{0}, {1}, {10}, {11}};
  DistanceMatrix d = EuclideanDistances(pts);
  auto mate = MinWeightPerfectMatching(d);
  ASSERT_TRUE(mate.ok());
  EXPECT_EQ((*mate)[0], 1);
  EXPECT_EQ((*mate)[2], 3);
  EXPECT_DOUBLE_EQ(MatchingWeight(d, *mate), 2.0);
}

TEST(MatchingTest, GreedyTrapIsEscapedByTwoOpt) {
  // Classic greedy trap: greedy picks the globally cheapest edge (b, c),
  // forcing the expensive (a, d). 2-opt must recover (a,b),(c,d).
  //   a --1.1-- b --1.0-- c --1.1-- d,  a--d = 10
  DistanceMatrix d = {
      {0.0, 1.1, 5.0, 10.0},
      {1.1, 0.0, 1.0, 5.0},
      {5.0, 1.0, 0.0, 1.1},
      {10.0, 5.0, 1.1, 0.0},
  };
  auto mate = MinWeightPerfectMatching(d);
  ASSERT_TRUE(mate.ok());
  EXPECT_DOUBLE_EQ(MatchingWeight(d, *mate), 2.2);
}

TEST(MatchingTest, ExactSolverMatchesByHand) {
  std::vector<std::vector<double>> pts = {{0}, {1}, {10}, {11}, {20}, {21}};
  DistanceMatrix d = EuclideanDistances(pts);
  auto mate = ExactMinWeightPerfectMatching(d);
  ASSERT_TRUE(mate.ok());
  ExpectValidMatching(*mate);
  EXPECT_DOUBLE_EQ(MatchingWeight(d, *mate), 3.0);
}

TEST(MatchingTest, ExactSolverRejectsLargeInstances) {
  DistanceMatrix d(24, std::vector<double>(24, 1.0));
  EXPECT_FALSE(ExactMinWeightPerfectMatching(d).ok());
}

TEST(MatchingTest, HeuristicNearOptimalOnRandomInstances) {
  // Property sweep: 2-opt heuristic within 5% of the exact DP on random
  // Euclidean instances up to n = 14.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    for (size_t n : {6, 10, 14}) {
      DistanceMatrix d = RandomEuclideanInstance(n, 2, seed * 100 + n);
      auto exact = ExactMinWeightPerfectMatching(d);
      auto heur = MinWeightPerfectMatching(d);
      ASSERT_TRUE(exact.ok());
      ASSERT_TRUE(heur.ok());
      ExpectValidMatching(*heur);
      const double w_exact = MatchingWeight(d, *exact);
      const double w_heur = MatchingWeight(d, *heur);
      EXPECT_GE(w_heur, w_exact - 1e-9);
      EXPECT_LE(w_heur, w_exact * 1.05 + 1e-9)
          << "seed " << seed << " n " << n;
    }
  }
}

TEST(MatchingTest, HeuristicIsDeterministic) {
  DistanceMatrix d = RandomEuclideanInstance(40, 3, 77);
  auto a = MinWeightPerfectMatching(d);
  auto b = MinWeightPerfectMatching(d);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(MatchingTest, LargeInstanceCompletesAndIsValid) {
  DistanceMatrix d = RandomEuclideanInstance(200, 4, 99);
  auto mate = MinWeightPerfectMatching(d);
  ASSERT_TRUE(mate.ok());
  ExpectValidMatching(*mate);
}

TEST(MatchingTest, SixNodeSolverEqualsTheExactDp) {
  // Continuous weights, and weights from two or three values or all equal,
  // where only the DP's order decides between tied matchings.
  const uint64_t values[] = {0, 2, 3, 1};
  util::Rng rng(2024);
  DistanceMatrix d(6, std::vector<double>(6, 0.0));
  double block[6][6];
  int mate[6];
  for (int trial = 0; trial < 100000; ++trial) {
    const uint64_t k = values[trial % 4];
    for (int i = 0; i < 6; ++i) {
      for (int j = i + 1; j < 6; ++j) {
        const double w = k == 0 ? rng.NextDouble() : rng.NextIndex(k);
        d[i][j] = d[j][i] = block[i][j] = w;
      }
    }
    auto want = ExactMinWeightPerfectMatching(d);
    ASSERT_TRUE(want.ok());
    auto weight = ExactSixNodeMatching(block, mate);
    ASSERT_TRUE(weight.ok());
    ASSERT_EQ(std::vector<int>(mate, mate + 6), *want) << "trial " << trial;
    ASSERT_EQ(*weight, MatchingWeight(d, *want)) << "trial " << trial;
  }
  // Every matching's weight overflows: the DP's error.
  for (auto& row : block) {
    std::fill(row, row + 6, std::numeric_limits<double>::max());
  }
  auto overflow = ExactSixNodeMatching(block, mate);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(MatchingTest, HeuristicKeepsItsMatesOnPinnedInstances) {
  // Digests of the mates on 256-point instances, recorded while 3-opt still
  // ran the bitmask DP on each six-node block: Gaussian points, points with
  // 40 duplicates (zero distances), and integer coordinates (many tied
  // distances).
  const uint64_t want[3][2] = {
      {0x22399bf481b792e5ull, 0x46222a80f03354a5ull},
      {0xc654e832add306c5ull, 0x837dbfeddbda2a45ull},
      {0xedb51990979e1225ull, 0xb544db6be7f15965ull}};
  for (int variant = 0; variant < 3; ++variant) {
    for (uint64_t s = 1; s <= 2; ++s) {
      util::Rng rng(1000 * variant + s);
      std::vector<std::vector<double>> points(256, std::vector<double>(4));
      for (auto& p : points) {
        for (double& v : p) {
          v = rng.Gaussian(0.0, 1.0);
          if (variant == 2) v = std::round(3.0 * v);
        }
      }
      if (variant == 1) {
        for (int i = 216; i < 256; ++i) points[i] = points[rng.NextIndex(216)];
      }
      auto mate = MinWeightPerfectMatching(EuclideanDistances(points));
      ASSERT_TRUE(mate.ok());
      ExpectValidMatching(*mate);
      uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the mate bytes
      const auto* bytes = reinterpret_cast<const unsigned char*>(mate->data());
      for (size_t i = 0; i < mate->size() * sizeof(int); ++i) {
        h = (h ^ bytes[i]) * 0x100000001b3ull;
      }
      EXPECT_EQ(h, want[variant][s - 1]) << variant << " seed " << s;
    }
  }
}

TEST(MatchingTest, EuclideanDistancesSymmetricWithZeroDiagonal) {
  std::vector<std::vector<double>> pts = {{0, 0}, {3, 4}, {-3, -4}};
  DistanceMatrix d = EuclideanDistances(pts);
  EXPECT_DOUBLE_EQ(d[0][1], 5.0);
  EXPECT_DOUBLE_EQ(d[1][0], 5.0);
  EXPECT_DOUBLE_EQ(d[1][2], 10.0);
  EXPECT_DOUBLE_EQ(d[0][0], 0.0);
}

}  // namespace
}  // namespace deepaqp::stats
