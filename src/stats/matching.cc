#include "stats/matching.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace deepaqp::stats {

namespace {

util::Status ValidateDistances(const DistanceMatrix& dist) {
  const size_t n = dist.size();
  if (n == 0 || n % 2 != 0) {
    return util::Status::InvalidArgument(
        "matching requires a non-empty even number of nodes");
  }
  for (const auto& row : dist) {
    if (row.size() != n) {
      return util::Status::InvalidArgument("distance matrix must be square");
    }
    // NaN compares false both ways, which breaks the greedy sort's strict
    // weak ordering and leaves DP states unreachable.
    for (double w : row) {
      if (!std::isfinite(w)) {
        return util::Status::InvalidArgument(
            "matching requires finite distances");
      }
    }
  }
  return util::Status::OK();
}

/// One perfect matching of six nodes as the exact solver's DP builds it:
/// node 0 pairs with a, the lowest node left (b) pairs with c, and e < f
/// are the last two.
struct SixNodePairing {
  int a, b, c, e, f;
};

/// All 15, grouped by the DP's 4-node state {0, a, b, c} in ascending mask
/// order (a group shares its last pair), by ascending a within a group:
/// the order in which the DP relaxes them.
constexpr SixNodePairing kSixNodePairings[15] = {
    {1, 2, 3, 4, 5}, {2, 1, 3, 4, 5}, {3, 1, 2, 4, 5},  // {0,1,2,3}
    {1, 2, 4, 3, 5}, {2, 1, 4, 3, 5}, {4, 1, 2, 3, 5},  // {0,1,2,4}
    {3, 1, 4, 2, 5}, {4, 1, 3, 2, 5},                   // {0,1,3,4}
    {1, 2, 5, 3, 4}, {2, 1, 5, 3, 4}, {5, 1, 2, 3, 4},  // {0,1,2,5}
    {3, 1, 5, 2, 4}, {5, 1, 3, 2, 4},                   // {0,1,3,5}
    {4, 1, 5, 2, 3}, {5, 1, 4, 2, 3},                   // {0,1,4,5}
};

}  // namespace

util::Result<double> ExactSixNodeMatching(const double (&dist)[6][6],
                                          int (&mate)[6]) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double best_total = kInf;
  int best = -1;
  for (int g = 0; g < 15;) {
    // The DP keeps one 4-node state's first strict minimum over a, then
    // adds the last pair; states are tried in ascending mask order.
    const int e = kSixNodePairings[g].e;
    const int f = kSixNodePairings[g].f;
    double partial = kInf;
    int row = -1;
    for (; g < 15 && kSixNodePairings[g].e == e && kSixNodePairings[g].f == f;
         ++g) {
      const SixNodePairing& m = kSixNodePairings[g];
      const double w = dist[0][m.a] + dist[m.b][m.c];
      if (w < partial) {
        partial = w;
        row = g;
      }
    }
    if (row < 0) continue;  // the state's weights overflowed
    const double total = partial + dist[e][f];
    if (total < best_total) {
      best_total = total;
      best = row;
    }
  }
  if (best < 0) {
    return util::Status::InvalidArgument("matching weight overflows a double");
  }
  const SixNodePairing& m = kSixNodePairings[best];
  mate[0] = m.a;
  mate[m.a] = 0;
  mate[m.b] = m.c;
  mate[m.c] = m.b;
  mate[m.e] = m.f;
  mate[m.f] = m.e;
  return best_total;
}

util::Result<std::vector<int>> MinWeightPerfectMatching(
    const DistanceMatrix& dist) {
  DEEPAQP_RETURN_IF_ERROR(ValidateDistances(dist));
  const int n = static_cast<int>(dist.size());

  // Greedy: cheapest edges first.
  struct Edge {
    double w;
    int u, v;
  };
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(n) * (n - 1) / 2);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      edges.push_back({dist[i][j], i, j});
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    if (a.w != b.w) return a.w < b.w;
    if (a.u != b.u) return a.u < b.u;
    return a.v < b.v;
  });
  std::vector<int> mate(n, -1);
  int matched = 0;
  for (const Edge& e : edges) {
    if (mate[e.u] < 0 && mate[e.v] < 0) {
      mate[e.u] = e.v;
      mate[e.v] = e.u;
      matched += 2;
      if (matched == n) break;
    }
  }

  // Local refinement. 2-opt: for every pair of matched edges try the two
  // alternative pairings. 3-opt: for every triple of matched edges, re-match
  // the 6 endpoints exactly (ExactSixNodeMatching's 15 candidates). Both
  // strictly decrease total weight, so the loop terminates.
  auto collect_pairs = [&] {
    std::vector<std::pair<int, int>> pairs;
    pairs.reserve(n / 2);
    for (int i = 0; i < n; ++i) {
      if (i < mate[i]) pairs.emplace_back(i, mate[i]);
    }
    return pairs;
  };

  auto two_opt_pass = [&] {
    bool improved = false;
    const auto pairs = collect_pairs();
    for (size_t p = 0; p < pairs.size(); ++p) {
      for (size_t q = p + 1; q < pairs.size(); ++q) {
        const auto [a, b] = pairs[p];
        const auto [c, d] = pairs[q];
        // mate may have changed within this pass; skip stale entries.
        if (mate[a] != b || mate[c] != d) continue;
        const double current = dist[a][b] + dist[c][d];
        const double alt1 = dist[a][c] + dist[b][d];
        const double alt2 = dist[a][d] + dist[b][c];
        if (alt1 < current - 1e-12 && alt1 <= alt2) {
          mate[a] = c;
          mate[c] = a;
          mate[b] = d;
          mate[d] = b;
          improved = true;
        } else if (alt2 < current - 1e-12) {
          mate[a] = d;
          mate[d] = a;
          mate[b] = c;
          mate[c] = b;
          improved = true;
        }
      }
    }
    return improved;
  };

  auto three_opt_pass = [&]() -> util::Result<bool> {
    bool improved = false;
    const auto pairs = collect_pairs();
    const size_t k = pairs.size();
    // Upper triangle only: nodes 0-3 (pairs p and q) are filled once per
    // (p, q), the entries of nodes 4-5 once per s.
    double sub[6][6];
    int nodes[6];
    int best[6];
    for (size_t p = 0; p < k; ++p) {
      for (size_t q = p + 1; q < k; ++q) {
        std::tie(nodes[0], nodes[1]) = pairs[p];
        std::tie(nodes[2], nodes[3]) = pairs[q];
        for (int i = 0; i < 4; ++i) {
          for (int j = i + 1; j < 4; ++j) sub[i][j] = dist[nodes[i]][nodes[j]];
        }
        for (size_t s = q + 1; s < k; ++s) {
          // Only an improvement moves mates, and none can touch p or q once
          // one of them is stale, so the rest of this s loop would skip.
          if (mate[nodes[0]] != nodes[1] || mate[nodes[2]] != nodes[3]) break;
          std::tie(nodes[4], nodes[5]) = pairs[s];
          if (mate[nodes[4]] != nodes[5]) continue;
          for (int i = 0; i < 5; ++i) {
            for (int j = std::max(i + 1, 4); j < 6; ++j) {
              sub[i][j] = dist[nodes[i]][nodes[j]];
            }
          }
          const double current = dist[nodes[0]][nodes[1]] +
                                 dist[nodes[2]][nodes[3]] +
                                 dist[nodes[4]][nodes[5]];
          DEEPAQP_ASSIGN_OR_RETURN(const double weight,
                                   ExactSixNodeMatching(sub, best));
          if (weight < current - 1e-12) {
            for (int i = 0; i < 6; ++i) {
              mate[nodes[i]] = nodes[best[i]];
            }
            improved = true;
          }
        }
      }
    }
    return improved;
  };

  for (;;) {
    while (two_opt_pass()) {
    }
    DEEPAQP_ASSIGN_OR_RETURN(const bool improved, three_opt_pass());
    if (!improved) break;
  }
  return mate;
}

util::Result<std::vector<int>> ExactMinWeightPerfectMatching(
    const DistanceMatrix& dist) {
  DEEPAQP_RETURN_IF_ERROR(ValidateDistances(dist));
  if (dist.size() > 22) {
    return util::Status::InvalidArgument(
        "exact matching limited to n <= 22 nodes");
  }
  const int n = static_cast<int>(dist.size());
  const uint32_t full = (1u << n) - 1;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> best(full + 1, kInf);
  std::vector<std::pair<int, int>> choice(full + 1, {-1, -1});
  best[0] = 0.0;
  for (uint32_t mask = 0; mask < full; ++mask) {
    if (best[mask] == kInf) continue;
    // First unmatched node must pair with someone: canonical ordering
    // prevents revisiting permutations.
    int i = 0;
    while (mask & (1u << i)) ++i;
    for (int j = i + 1; j < n; ++j) {
      if (mask & (1u << j)) continue;
      const uint32_t next = mask | (1u << i) | (1u << j);
      const double w = best[mask] + dist[i][j];
      if (w < best[next]) {
        best[next] = w;
        choice[next] = {i, j};
      }
    }
  }
  std::vector<int> mate(n, -1);
  uint32_t mask = full;
  while (mask != 0) {
    const auto [i, j] = choice[mask];
    if (i < 0) {
      // Finite weights whose sums overflow to +inf never improve on an
      // unreached state.
      return util::Status::InvalidArgument(
          "matching weight overflows a double");
    }
    mate[i] = j;
    mate[j] = i;
    mask &= ~(1u << i);
    mask &= ~(1u << j);
  }
  return mate;
}

double MatchingWeight(const DistanceMatrix& dist,
                      const std::vector<int>& mate) {
  double total = 0.0;
  for (size_t i = 0; i < mate.size(); ++i) {
    if (static_cast<size_t>(mate[i]) > i) {
      total += dist[i][mate[i]];
    }
  }
  return total;
}

DistanceMatrix EuclideanDistances(
    const std::vector<std::vector<double>>& points) {
  const size_t n = points.size();
  DistanceMatrix dist(n, std::vector<double>(n, 0.0));
  // The O(n^2 d) matrix build is the cross-match test's hot loop; rows are
  // farmed out to the global pool. Every (i, j) cell is a pure function of
  // the two points and is written exactly once (row i owns the j > i
  // wedge, mirroring into column i), so the result is identical at every
  // thread count.
  util::ParallelFor(0, n, [&](size_t i) {
    for (size_t j = i + 1; j < n; ++j) {
      DEEPAQP_CHECK_EQ(points[i].size(), points[j].size());
      double acc = 0.0;
      for (size_t k = 0; k < points[i].size(); ++k) {
        const double d = points[i][k] - points[j][k];
        acc += d * d;
      }
      dist[i][j] = dist[j][i] = std::sqrt(acc);
    }
  });
  return dist;
}

}  // namespace deepaqp::stats
