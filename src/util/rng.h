#ifndef DEEPAQP_UTIL_RNG_H_
#define DEEPAQP_UTIL_RNG_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace deepaqp::util {

/// Deterministic pseudo-random number generator (xoshiro256++ seeded via
/// SplitMix64). One instance per logical stream; not thread-safe, share
/// nothing across threads. All library randomness flows through this class so
/// experiments are reproducible from a single seed.
///
/// The per-draw methods (NextUint64, NextDouble, Uniform, NextIndex,
/// Bernoulli) are defined inline below: tuple decoding calls them hundreds
/// of times per generated row, and the build has no LTO to inline them
/// across translation units. Keep this header out of the explicit-ISA
/// kernel TUs (DESIGN.md Sec. 14): an AVX2-compiled COMDAT copy of an
/// inline method could otherwise be the one the linker keeps.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  uint64_t NextUint64();

  /// Uniform in [0, 1).
  double NextDouble();

  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextIndex(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (cached spare value).
  double NextGaussian();

  /// Normal with the given mean and standard deviation.
  double Gaussian(double mean, double stddev);

  /// True with probability p.
  bool Bernoulli(double p);

  /// Exponential with the given rate.
  double Exponential(double rate);

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Requires at least one strictly positive weight.
  size_t Categorical(const std::vector<double>& weights);

  /// In-place Fisher-Yates shuffle of indices [0, n); returns the permutation.
  std::vector<size_t> Permutation(size_t n);

  /// Samples k distinct indices from [0, n) uniformly (k <= n), in arbitrary
  /// order, via partial Fisher-Yates.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Derives an independent child stream (e.g., one per worker or per model).
  Rng Fork();

  /// Deterministically derives the child stream for `stream_index` from a
  /// master seed via SplitMix64 mixing. Same (seed, index) always yields the
  /// same stream; distinct indices (or seeds) yield decorrelated streams.
  /// This is the seeding scheme of every parallel region: chunk i of a
  /// ParallelFor draws from ChildStream(master, i), so output depends only
  /// on the master seed and the fixed chunk layout — never on thread count
  /// or scheduling order.
  static Rng ChildStream(uint64_t master_seed, uint64_t stream_index);

 private:
  /// Aborts with a diagnostic; NextIndex(0) has no valid result.
  [[noreturn]] static void FailEmptyIndexRange();

  uint64_t state_[4];
  double spare_gaussian_ = 0.0;
  bool has_spare_gaussian_ = false;
};

inline uint64_t Rng::NextUint64() {
  const uint64_t result = std::rotl(state_[0] + state_[3], 23) + state_[0];
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = std::rotl(state_[3], 45);
  return result;
}

inline double Rng::NextDouble() {
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

inline double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

inline uint64_t Rng::NextIndex(uint64_t n) {
  if (n == 0) FailEmptyIndexRange();
  // A power of two divides 2^64, so the rejection threshold below is 0 and
  // r % n is r & (n - 1): the same value, without two 64-bit divisions.
  if ((n & (n - 1)) == 0) return NextUint64() & (n - 1);
  // Rejection to avoid modulo bias.
  const uint64_t threshold = (0 - n) % n;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % n;
  }
}

inline bool Rng::Bernoulli(double p) { return NextDouble() < p; }

/// Zipf distribution over {0, ..., n-1} with exponent s >= 0 (s = 0 is
/// uniform). Precomputes the CDF once; sampling is O(log n) via binary
/// search. Rank 0 is the most frequent value.
class ZipfDistribution {
 public:
  ZipfDistribution(uint64_t n, double s);

  uint64_t Sample(Rng& rng) const;

  /// Probability mass of rank k.
  double Pmf(uint64_t k) const;

  uint64_t n() const { return n_; }

 private:
  uint64_t n_;
  std::vector<double> cdf_;
};

/// Walker alias table for O(1) sampling from a fixed discrete distribution.
/// Used on hot sampling paths (decoder output draws, synthetic data
/// generation) where Rng::Categorical's linear scan is too slow.
class AliasTable {
 public:
  /// Builds from unnormalized non-negative weights (at least one positive).
  explicit AliasTable(const std::vector<double>& weights);

  size_t Sample(Rng& rng) const;

  size_t size() const { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<size_t> alias_;
};

}  // namespace deepaqp::util

#endif  // DEEPAQP_UTIL_RNG_H_
