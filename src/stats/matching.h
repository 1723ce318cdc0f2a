#ifndef DEEPAQP_STATS_MATCHING_H_
#define DEEPAQP_STATS_MATCHING_H_

#include <vector>

#include "util/status.h"

namespace deepaqp::stats {

/// Symmetric pairwise-distance matrix (row-major, n x n).
using DistanceMatrix = std::vector<std::vector<double>>;

/// Computes a minimum-weight perfect matching of the complete graph given by
/// `dist` (n must be even, every distance finite; otherwise
/// InvalidArgument). Returns mate[i] = j with mate[j] = i.
///
/// Algorithm: deterministic greedy construction (globally cheapest edge
/// first) followed by 2-opt pair-exchange refinement to a local optimum.
/// For the cross-match test this is sufficient: Rosenbaum's exact null
/// distribution (Eq. 9) holds for ANY matching computed blindly from the
/// pooled points — optimality affects only the test's power, and the 2-opt
/// local optimum is within a few percent of the exact optimum on Euclidean
/// instances (verified against the exact DP in tests). The exact O(2^n)
/// solver below is used for n <= 20.
util::Result<std::vector<int>> MinWeightPerfectMatching(
    const DistanceMatrix& dist);

/// Exact minimum-weight perfect matching by bitmask dynamic programming.
/// Exponential; requires even n <= 22. Reference implementation for tests
/// and for small test-sample sizes.
util::Result<std::vector<int>> ExactMinWeightPerfectMatching(
    const DistanceMatrix& dist);

/// The exact six-node sub-solve of MinWeightPerfectMatching's 3-opt step,
/// on a stack matrix of which it reads only the upper triangle (i < j). It
/// takes the first strict minimum of the 15 perfect matchings in the order
/// ExactMinWeightPerfectMatching's DP relaxes them, with the weights summed
/// in the DP's order, so both return the same mates on every finite input.
/// Returns the matching's weight, or the DP's InvalidArgument when every
/// matching's weight overflows a double. Allocates nothing.
util::Result<double> ExactSixNodeMatching(const double (&dist)[6][6],
                                          int (&mate)[6]);

/// Total weight of a matching returned by either solver.
double MatchingWeight(const DistanceMatrix& dist,
                      const std::vector<int>& mate);

/// Euclidean distance matrix of `points` (n rows, d columns flattened:
/// points[i] is the i-th row). Rows are computed in parallel on the global
/// thread pool; the result is independent of the thread count.
DistanceMatrix EuclideanDistances(const std::vector<std::vector<double>>& points);

}  // namespace deepaqp::stats

#endif  // DEEPAQP_STATS_MATCHING_H_
