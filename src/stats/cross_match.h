#ifndef DEEPAQP_STATS_CROSS_MATCH_H_
#define DEEPAQP_STATS_CROSS_MATCH_H_

#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace deepaqp::stats {

/// Result of Rosenbaum's cross-match two-sample test (paper Sec. IV-C,
/// Eq. 9). The pooled points are paired by a minimum-weight perfect
/// matching; under H0 (both samples from the same distribution) the count
/// of cross-sample pairs a_DM follows an exact distribution. Unusually FEW
/// cross pairs indicate the samples separate in space, i.e., H0 is false.
struct CrossMatchResult {
  int a_dd = 0;  ///< pairs with both points from the first sample
  int a_mm = 0;  ///< pairs with both points from the second sample
  int a_dm = 0;  ///< cross pairs (the test statistic)
  /// One-sided p-value P(A_DM <= a_dm | H0).
  double p_value = 1.0;
  /// Expected a_dm under H0 (for reporting).
  double expected_a_dm = 0.0;

  bool Reject(double alpha) const { return p_value < alpha; }
};

/// Runs the cross-match test on two point sets (rows are points, all of the
/// same dimension, every coordinate finite; otherwise InvalidArgument). If
/// the pooled count is odd one point is dropped at random (Rosenbaum's
/// convention). Sizes need not be equal. The matching
/// uses the exact solver for pooled n <= 20, the 2-opt heuristic otherwise
/// (validity is unaffected; see matching.h).
util::Result<CrossMatchResult> CrossMatchTest(
    const std::vector<std::vector<double>>& sample_d,
    const std::vector<std::vector<double>>& sample_m, util::Rng& rng);

/// Exact null probability P(A_DM = a) for pooled sizes n1, n2 (paper
/// Eq. 9, in the standard corrected form
///   P(a) = 2^a (N/2)! / [ C(N, n1) * a_dd! * a_mm! * a! ]
/// with N = n1 + n2 even, a_dd = (n1-a)/2, a_mm = (n2-a)/2). Returns 0 for
/// infeasible a (wrong parity or negative group counts).
double CrossMatchNullPmf(int n1, int n2, int a);

}  // namespace deepaqp::stats

#endif  // DEEPAQP_STATS_CROSS_MATCH_H_
