#include "stats/cross_match.h"

#include <algorithm>
#include <cmath>

#include "stats/matching.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace deepaqp::stats {

namespace {

double LogFactorial(int n) { return std::lgamma(static_cast<double>(n) + 1); }

double LogChoose(int n, int k) {
  return LogFactorial(n) - LogFactorial(k) - LogFactorial(n - k);
}

}  // namespace

double CrossMatchNullPmf(int n1, int n2, int a) {
  const int total = n1 + n2;
  if (total % 2 != 0 || a < 0) return 0.0;
  if ((n1 - a) % 2 != 0 || (n2 - a) % 2 != 0) return 0.0;
  const int a_dd = (n1 - a) / 2;
  const int a_mm = (n2 - a) / 2;
  if (a_dd < 0 || a_mm < 0) return 0.0;
  const double log_p = a * std::log(2.0) + LogFactorial(total / 2) -
                       LogChoose(total, n1) - LogFactorial(a_dd) -
                       LogFactorial(a_mm) - LogFactorial(a);
  return std::exp(log_p);
}

util::Result<CrossMatchResult> CrossMatchTest(
    const std::vector<std::vector<double>>& sample_d,
    const std::vector<std::vector<double>>& sample_m, util::Rng& rng) {
  if (sample_d.size() < 2 || sample_m.size() < 2) {
    return util::Status::InvalidArgument(
        "cross-match test needs at least 2 points per sample");
  }
  // Chaos site: simulated matcher failure mid-bias-elimination; the caller
  // (EliminateModelBias) must degrade rather than abort the workflow.
  if (util::FailpointTriggered("stats/cross_match")) {
    return util::FailpointError("stats/cross_match");
  }
  // A non-finite coordinate (e.g. a poisoned projection) has no distance
  // the matcher could order; ragged rows have none at all.
  const size_t dim = sample_d.front().size();
  for (const auto* sample : {&sample_d, &sample_m}) {
    for (const auto& p : *sample) {
      if (p.size() != dim) {
        return util::Status::InvalidArgument(
            "cross-match points must all have the same dimension");
      }
      for (double x : p) {
        if (!std::isfinite(x)) {
          return util::Status::InvalidArgument(
              "cross-match points must be finite");
        }
      }
    }
  }
  // Pool points with labels; drop one at random if the total is odd.
  std::vector<std::vector<double>> points;
  std::vector<int> label;
  points.reserve(sample_d.size() + sample_m.size());
  for (const auto& p : sample_d) {
    points.push_back(p);
    label.push_back(0);
  }
  for (const auto& p : sample_m) {
    points.push_back(p);
    label.push_back(1);
  }
  if (points.size() % 2 != 0) {
    const size_t drop = rng.NextIndex(points.size());
    points.erase(points.begin() + drop);
    label.erase(label.begin() + drop);
  }
  const int n1 = static_cast<int>(std::count(label.begin(), label.end(), 0));
  const int n2 = static_cast<int>(label.size()) - n1;
  if (n1 == 0 || n2 == 0) {
    return util::Status::InvalidArgument(
        "one sample vanished after odd-pool drop");
  }

  // Distance construction is the O(n^2) hot path; it runs on the global
  // thread pool and is bit-identical at every thread count, so the p-value
  // below is reproducible from the rng seed alone.
  const DistanceMatrix dist = EuclideanDistances(points);
  std::vector<int> mate;
  if (points.size() <= 20) {
    DEEPAQP_ASSIGN_OR_RETURN(mate, ExactMinWeightPerfectMatching(dist));
  } else {
    DEEPAQP_ASSIGN_OR_RETURN(mate, MinWeightPerfectMatching(dist));
  }

  CrossMatchResult result;
  for (size_t i = 0; i < mate.size(); ++i) {
    if (static_cast<size_t>(mate[i]) < i) continue;
    const int li = label[i];
    const int lj = label[mate[i]];
    if (li == 0 && lj == 0) {
      ++result.a_dd;
    } else if (li == 1 && lj == 1) {
      ++result.a_mm;
    } else {
      ++result.a_dm;
    }
  }

  // One-sided p-value: small a_dm is evidence against H0.
  double p = 0.0;
  for (int a = result.a_dm; a >= 0; a -= 2) {
    p += CrossMatchNullPmf(n1, n2, a);
  }
  result.p_value = std::min(1.0, p);

  // E[A_DM] = n1 * n2 / (N - 1) under H0.
  const int total = n1 + n2;
  result.expected_a_dm =
      static_cast<double>(n1) * n2 / static_cast<double>(total - 1);
  return result;
}

}  // namespace deepaqp::stats
