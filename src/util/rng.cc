#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/logging.h"

namespace deepaqp::util {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

void Rng::FailEmptyIndexRange() {
  DEEPAQP_LOG(Error) << "Rng::NextIndex(0): the range [0, 0) is empty";
  std::abort();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  DEEPAQP_CHECK_LE(lo, hi);
  return lo + static_cast<int64_t>(
                  NextIndex(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::NextGaussian() {
  if (has_spare_gaussian_) {
    has_spare_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  const double u2 = NextDouble();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  const double two_pi = 6.283185307179586;
  spare_gaussian_ = mag * std::sin(two_pi * u2);
  has_spare_gaussian_ = true;
  return mag * std::cos(two_pi * u2);
}

double Rng::Gaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

double Rng::Exponential(double rate) {
  DEEPAQP_CHECK_GT(rate, 0.0);
  double u = 0.0;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    DEEPAQP_CHECK_GE(w, 0.0);
    total += w;
  }
  DEEPAQP_CHECK_GT(total, 0.0);
  double target = NextDouble() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target <= 0.0) return i;
  }
  // Floating-point slack: return last positive weight.
  for (size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size() - 1;
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;
  for (size_t i = n; i > 1; --i) {
    size_t j = NextIndex(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  DEEPAQP_CHECK_LE(k, n);
  std::vector<size_t> pool(n);
  for (size_t i = 0; i < n; ++i) pool[i] = i;
  std::vector<size_t> out;
  out.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + NextIndex(n - i);
    std::swap(pool[i], pool[j]);
    out.push_back(pool[i]);
  }
  return out;
}

Rng Rng::Fork() { return Rng(NextUint64()); }

Rng Rng::ChildStream(uint64_t master_seed, uint64_t stream_index) {
  // Hash seed and index through independent SplitMix64 chains before
  // combining, so child seeds are decorrelated both across indices of one
  // master and across masters for one index.
  uint64_t s = master_seed;
  const uint64_t seed_mix = SplitMix64(&s);
  uint64_t t = stream_index + 0x9E3779B97F4A7C15ull;
  const uint64_t index_mix = SplitMix64(&t);
  return Rng(seed_mix ^ index_mix);
}

ZipfDistribution::ZipfDistribution(uint64_t n, double s) : n_(n) {
  DEEPAQP_CHECK_GT(n, 0u);
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -s);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

uint64_t ZipfDistribution::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return n_ - 1;
  return static_cast<uint64_t>(it - cdf_.begin());
}

double ZipfDistribution::Pmf(uint64_t k) const {
  DEEPAQP_CHECK_LT(k, n_);
  const double lo = (k == 0) ? 0.0 : cdf_[k - 1];
  return cdf_[k] - lo;
}

AliasTable::AliasTable(const std::vector<double>& weights) {
  const size_t n = weights.size();
  DEEPAQP_CHECK_GT(n, 0u);
  double total = 0.0;
  for (double w : weights) {
    DEEPAQP_CHECK_GE(w, 0.0);
    total += w;
  }
  DEEPAQP_CHECK_GT(total, 0.0);

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::vector<size_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    const size_t s = small.back();
    small.pop_back();
    const size_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (size_t i : large) prob_[i] = 1.0;
  for (size_t i : small) prob_[i] = 1.0;
}

size_t AliasTable::Sample(Rng& rng) const {
  const size_t i = static_cast<size_t>(rng.NextIndex(prob_.size()));
  return rng.NextDouble() < prob_[i] ? i : alias_[i];
}

}  // namespace deepaqp::util
