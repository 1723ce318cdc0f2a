// Exhaustive correctness suite for the blocked GEMM kernel layer
// (nn/kernels.h) against the retained naive reference:
//  * all four transpose combinations x odd/prime shapes straddling every
//    panel boundary x beta in {0, 0.5, 1}, within 1e-5 relative error;
//  * ShardedGemmTN bit-identical across thread counts with the blocked
//    kernel, and within tolerance of the reference;
//  * fused bias+activation forwards equal to the unfused pipeline exactly;
//  * the vectorized sigmoid within 1e-5 of the std::exp form, with the
//    Bernoulli fusion consuming the same RNG stream and giving the same
//    bits as rng.Bernoulli, edge logits included;
//  * the vectorized softplus within 5e-7 of the double form on every
//    kernel the CPU has, NaN and infinities included;
//  * the portable sigmoid and softplus loops bit-identical to their scalar
//    select formulas across a sweep of float bit patterns;
//  * the float Box–Muller prior: one rng word per pair, within 4e-6 of the
//    double formula on the same uniforms, and N(0, 1) by mean, variance
//    and a Kolmogorov–Smirnov test;
//  * SetGemmKernel switches the kernel that Gemm dispatches to.

#include "nn/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

#include "nn/arena.h"
#include "nn/kernels_internal.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepaqp::nn {
namespace {

/// Restores the previously active kernel kind when a test scope exits.
class ScopedKernel {
 public:
  explicit ScopedKernel(GemmKernelKind kind) : prev_(ActiveGemmKernel()) {
    SetGemmKernel(kind);
  }
  ~ScopedKernel() { SetGemmKernel(prev_); }

 private:
  GemmKernelKind prev_;
};

Matrix RandomMatrix(size_t rows, size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

Matrix Abs(const Matrix& m) {
  Matrix out(m.rows(), m.cols());
  for (size_t i = 0; i < m.size(); ++i) out.data()[i] = std::abs(m.data()[i]);
  return out;
}

/// Max elementwise error between two GEMM results, normalized by the
/// forward-error scale of the accumulation: |alpha| * (|A| @ |B|)_ij +
/// |beta * C0_ij| + 1. Reordering k-sums (what the blocked kernel does)
/// perturbs each element by O(eps) of that magnitude sum, so this is the
/// quantity the 1e-5 contract is stated on; a plain |x - y| / |x| bound
/// would spuriously flag near-cancelling accumulations.
double GemmRelError(const Matrix& a, bool ta, const Matrix& b, bool tb,
                    float alpha, float beta, const Matrix* c0,
                    const Matrix& want, const Matrix& got) {
  EXPECT_EQ(want.rows(), got.rows());
  EXPECT_EQ(want.cols(), got.cols());
  Matrix mag;
  ReferenceGemm(Abs(a), ta, Abs(b), tb, std::abs(alpha), 0.0f, &mag);
  double worst = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    double scale = 1.0 + mag.data()[i];
    if (c0 != nullptr) scale += std::abs(beta * c0->data()[i]);
    worst = std::max(
        worst, std::abs(static_cast<double>(want.data()[i]) -
                        static_cast<double>(got.data()[i])) / scale);
  }
  return worst;
}

bool BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) return false;
  }
  return true;
}

constexpr double kTol = 1e-5;

/// The fast kernels under test: always the blocked kernel, plus the simd
/// backend when this machine can run it (the dedicated simd suite lives in
/// nn_simd_backend_test.cc; sweeping it here too keeps the exhaustive
/// transpose/shape harness authoritative for every dispatchable backend).
std::vector<GemmKernelKind> FastKernels() {
  std::vector<GemmKernelKind> kinds = {GemmKernelKind::kBlocked};
  if (SimdKernelAvailable()) kinds.push_back(GemmKernelKind::kSimd);
  return kinds;
}

// Shapes straddling every blocking boundary: micro-tile edges (kMr=4,
// kNr=8), sub-tile ragged cases, and a size past the k cache block would
// be slow to sweep cubically, so 129 covers "multiple panels + remainder".
const size_t kDims[] = {1, 2, 3, 5, 7, 13, 17, 33, 129};

TEST(GemmKernelTest, FastKernelsMatchReferenceAllTransposesAllShapes) {
  util::Rng rng(20240811);
  const float kBetas[] = {0.0f, 0.5f, 1.0f};
  const std::vector<GemmKernelKind> fast = FastKernels();
  for (size_t m : kDims) {
    for (size_t k : kDims) {
      for (size_t n : kDims) {
        // Keep the cubic sweep tractable: skip triples where every dim is
        // large (covered by the dedicated large-shape test below).
        if (m * k * n > 200000) continue;
        for (bool ta : {false, true}) {
          for (bool tb : {false, true}) {
            const Matrix a = ta ? RandomMatrix(k, m, rng)
                                : RandomMatrix(m, k, rng);
            const Matrix b = tb ? RandomMatrix(n, k, rng)
                                : RandomMatrix(k, n, rng);
            for (float beta : kBetas) {
              const Matrix c0 = RandomMatrix(m, n, rng);
              Matrix want = c0;
              ReferenceGemm(a, ta, b, tb, 1.25f, beta, &want);
              for (GemmKernelKind kind : fast) {
                Matrix got = c0;
                ScopedKernel active(kind);
                Gemm(a, ta, b, tb, 1.25f, beta, &got);
                EXPECT_LE(GemmRelError(a, ta, b, tb, 1.25f, beta, &c0, want,
                                       got),
                          kTol)
                    << GemmKernelKindName(kind) << " m=" << m << " k=" << k
                    << " n=" << n << " ta=" << ta << " tb=" << tb
                    << " beta=" << beta;
              }
            }
          }
        }
      }
    }
  }
}

TEST(GemmKernelTest, FastKernelsMatchReferenceOnVaeShapes) {
  // The shapes the throughput target is stated on: batch 256 x hidden
  // 64..512 (multiple K cache blocks at 512).
  util::Rng rng(7);
  for (size_t hidden : {64u, 128u, 256u, 512u}) {
    const Matrix a = RandomMatrix(256, hidden, rng);
    const Matrix b = RandomMatrix(hidden, hidden, rng);
    Matrix want;
    ReferenceGemm(a, false, b, false, 1.0f, 0.0f, &want);
    for (GemmKernelKind kind : FastKernels()) {
      Matrix got;
      ScopedKernel active(kind);
      Gemm(a, false, b, false, 1.0f, 0.0f, &got);
      EXPECT_LE(GemmRelError(a, false, b, false, 1.0f, 0.0f, nullptr, want,
                             got),
                kTol)
          << GemmKernelKindName(kind) << " hidden=" << hidden;
    }
  }
}

TEST(GemmKernelTest, BlockedGemmBitIdenticalAcrossThreadCounts) {
  ScopedKernel blocked(GemmKernelKind::kBlocked);
  util::Rng rng(99);
  const Matrix a = RandomMatrix(257, 130, rng);
  const Matrix b = RandomMatrix(130, 65, rng);
  util::SetGlobalThreads(1);
  Matrix base;
  Gemm(a, false, b, false, 1.0f, 0.0f, &base);
  for (int threads : {2, 3, 8}) {
    util::SetGlobalThreads(threads);
    Matrix c;
    Gemm(a, false, b, false, 1.0f, 0.0f, &c);
    EXPECT_TRUE(BitIdentical(base, c)) << "threads=" << threads;
  }
  util::SetGlobalThreads(0);
}

TEST(GemmKernelTest, ShardedGemmTNBitIdenticalAcrossThreadCounts) {
  ScopedKernel blocked(GemmKernelKind::kBlocked);
  util::Rng rng(123);
  const Matrix a = RandomMatrix(300, 33, rng);  // batch x in
  const Matrix b = RandomMatrix(300, 17, rng);  // batch x out
  util::SetGlobalThreads(1);
  Matrix base(33, 17);
  ShardedGemmTN(a, b, &base);
  for (int threads : {2, 8}) {
    util::SetGlobalThreads(threads);
    Matrix c(33, 17);
    ShardedGemmTN(a, b, &c);
    EXPECT_TRUE(BitIdentical(base, c)) << "threads=" << threads;
  }
  util::SetGlobalThreads(0);

  // And the blocked shard kernel agrees with the reference TN product.
  Matrix ref_c;
  ReferenceGemm(a, true, b, false, 1.0f, 0.0f, &ref_c);
  EXPECT_LE(
      GemmRelError(a, true, b, false, 1.0f, 0.0f, nullptr, ref_c, base),
      kTol);
}

TEST(GemmKernelTest, FusedLinearForwardMatchesUnfusedPipeline) {
  util::Rng rng(55);
  const Activation kActs[] = {Activation::kIdentity, Activation::kRelu,
                              Activation::kLeakyRelu, Activation::kSigmoid,
                              Activation::kTanh};
  for (size_t batch : {1u, 5u, 33u, 129u}) {
    for (size_t in : {3u, 17u, 64u}) {
      for (size_t out_dim : {1u, 7u, 65u}) {
        const Matrix x = RandomMatrix(batch, in, rng);
        const Matrix w = RandomMatrix(in, out_dim, rng);
        const Matrix bias = RandomMatrix(1, out_dim, rng);
        for (Activation act : kActs) {
          ScopedKernel blocked(GemmKernelKind::kBlocked);
          Matrix fused;
          FusedLinearForward(x, w, bias, act, 0.2f, &fused);
          // Unfused: same blocked GEMM, then bias, then activation.
          Matrix plain;
          Gemm(x, false, w, false, 1.0f, 0.0f, &plain);
          AddRowBroadcast(bias, &plain);
          ApplyActivation(act, 0.2f, plain.data(), plain.size());
          EXPECT_TRUE(BitIdentical(plain, fused))
              << "batch=" << batch << " in=" << in << " out=" << out_dim
              << " act=" << static_cast<int>(act);
        }
      }
    }
  }
}

TEST(GemmKernelTest, FusedLinearForwardSkipsEmptyBias) {
  util::Rng rng(56);
  const Matrix x = RandomMatrix(9, 13, rng);
  const Matrix w = RandomMatrix(13, 6, rng);
  Matrix no_bias;  // 0 x 0 sentinel
  Matrix fused;
  FusedLinearForward(x, w, no_bias, Activation::kIdentity, 0.0f, &fused);
  Matrix plain;
  Gemm(x, false, w, false, 1.0f, 0.0f, &plain);
  EXPECT_TRUE(BitIdentical(plain, fused));
}

TEST(GemmKernelTest, InferenceForwardIntoMatchesSequentialForward) {
  util::Rng rng(77);
  auto trunk = MakeMlpTrunk(19, 32, 2, rng);
  trunk->Add(std::make_unique<Linear>(32, 11, rng));
  trunk->Add(std::make_unique<Sigmoid>());
  const Matrix x = RandomMatrix(37, 19, rng);
  const Matrix want = trunk->Forward(x);
  ScratchArena arena;
  Matrix got;
  InferenceForwardInto(*trunk, x, &got, &arena);
  EXPECT_TRUE(BitIdentical(want, got));
  // Second pass reuses pooled buffers and must give the same answer.
  Matrix again;
  InferenceForwardInto(*trunk, x, &again, &arena);
  EXPECT_TRUE(BitIdentical(want, again));
  EXPECT_GT(arena.pooled(), 0u);
}

TEST(SigmoidKernelTest, VectorizedSigmoidWithinTolerance) {
  ScopedKernel blocked(GemmKernelKind::kBlocked);
  std::vector<float> x;
  for (float v = -30.0f; v <= 30.0f; v += 0.01f) x.push_back(v);
  std::vector<float> got(x.size());
  SigmoidVec(x.data(), got.data(), x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    const double want = 1.0 / (1.0 + std::exp(-static_cast<double>(x[i])));
    EXPECT_NEAR(got[i], want, 1e-5) << "x=" << x[i];
  }
}

uint32_t Bits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

float FromBits(uint32_t b) {
  float v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

/// Seeded normal logits, then the edges, twice (so a vector body and a
/// scalar tail both see them): p = 1 (large logits), the smallest p the
/// clamped exp allows (2^-126, for large negative logits), logits whose
/// exact sigmoid would be denormal, signed zeros, NaN and both infinities.
std::vector<float> BernoulliTestLogits(size_t normal_count) {
  std::vector<float> logits;
  util::Rng gen(4);
  for (size_t i = 0; i < normal_count; ++i) {
    logits.push_back(static_cast<float>(gen.NextGaussian() * 3.0));
  }
  const float inf = std::numeric_limits<float>::infinity();
  const float edges[] = {0.0f,   -0.0f,  17.0f,    40.0f,   1e30f,
                         FLT_MAX, -40.0f, -88.0f,   -90.0f,  -95.0f,
                         -100.0f, -103.0f, -1e30f, -FLT_MAX, std::nanf(""),
                         inf,     -inf};
  for (int copy = 0; copy < 2; ++copy) {
    for (float v : edges) logits.push_back(v);
    logits.push_back(0.5f);  // odd spacing between the two copies
  }
  return logits;
}

/// SigmoidBernoulliVec against the scalar draw on the active kernel's
/// probabilities: the same bits (+0.0f or 1.0f) and the same rng position
/// afterwards; NaN and -inf logits give 0, +inf gives 1.
void ExpectBernoulliMatchesScalarDraws(const std::vector<float>& logits) {
  util::Rng rng_a(31337);
  util::Rng rng_b(31337);
  std::vector<float> fused(logits.size());
  SigmoidBernoulliVec(logits.data(), logits.size(), rng_a, fused.data());
  std::vector<float> probs(logits.size());
  SigmoidVec(logits.data(), probs.data(), logits.size());
  for (size_t i = 0; i < logits.size(); ++i) {
    const float want = rng_b.Bernoulli(probs[i]) ? 1.0f : 0.0f;
    EXPECT_EQ(Bits(fused[i]), Bits(want)) << "i=" << i << " x=" << logits[i];
    if (std::isnan(logits[i]) ||
        logits[i] == -std::numeric_limits<float>::infinity()) {
      EXPECT_EQ(Bits(fused[i]), Bits(0.0f)) << "x=" << logits[i];
    }
    if (probs[i] == 1.0f) {
      EXPECT_EQ(fused[i], 1.0f) << "x=" << logits[i];
    }
  }
  EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64());
}

TEST(SigmoidKernelTest, BernoulliFusionConsumesSameRngStream) {
  ScopedKernel blocked(GemmKernelKind::kBlocked);
  ExpectBernoulliMatchesScalarDraws(BernoulliTestLogits(1000));
}

/// The scalar formulas the portable loops had before they became bitwise
/// selects: FastExp with ternary clamps, and Softplus over it.
float SelectFormExp(float x) {
  float z = x * 1.44269504088896341f;
  z = z < -126.0f ? -126.0f : z;
  z = z > 126.0f ? 126.0f : z;
  const float shifted = z + 12582912.0f;
  const int32_t n = static_cast<int32_t>(Bits(shifted)) - 0x4B400000;
  const float f = z - (shifted - 12582912.0f);
  const float u = f * 0.693147180559945286f;
  float p = 1.0f / 720.0f;
  p = p * u + 1.0f / 120.0f;
  p = p * u + 1.0f / 24.0f;
  p = p * u + 1.0f / 6.0f;
  p = p * u + 0.5f;
  p = p * u + 1.0f;
  p = p * u + 1.0f;
  return p * FromBits(static_cast<uint32_t>(n + 127) << 23);
}

float SelectFormSoftplus(float x) {
  const float e = SelectFormExp(x < 0.0f ? x : -x);
  const float s = e / (2.0f + e);
  float p = 1.0f / 11.0f;
  for (float c : {1.0f / 9.0f, 1.0f / 7.0f, 1.0f / 5.0f, 1.0f / 3.0f, 1.0f}) {
    p = p * (s * s) + c;
  }
  return (x < 0.0f ? 0.0f : x) + 2.0f * s * p;
}

TEST(SigmoidKernelTest, PortableLoopsBitIdenticalToScalarSelectForms) {
  // Every 997th float bit pattern (both signs, denormals, infinities and
  // NaNs among them) plus the specials, through the vectorized blocked
  // loops: each result must carry the scalar formula's exact bits. A NaN
  // result only has to be a NaN: which operand's payload a two-NaN multiply
  // keeps depends on the operand order the compiler picked.
  ScopedKernel blocked(GemmKernelKind::kBlocked);
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> x = {0.0f, -0.0f, inf, -inf, std::nanf(""),
                          FLT_MIN, -FLT_MIN, FLT_MAX, -FLT_MAX};
  for (uint64_t b = 0; b <= 0xFFFFFFFFull; b += 997) {
    x.push_back(FromBits(static_cast<uint32_t>(b)));
  }
  std::vector<float> sigmoid(x.size());
  std::vector<float> softplus(x.size());
  SigmoidVec(x.data(), sigmoid.data(), x.size());
  SoftplusVec(x.data(), softplus.data(), x.size());
  size_t sigmoid_mismatches = 0;
  size_t softplus_mismatches = 0;
  const auto same = [](float got, float want) {
    return Bits(got) == Bits(want) || (std::isnan(got) && std::isnan(want));
  };
  for (size_t i = 0; i < x.size(); ++i) {
    const float want_sigmoid = 1.0f / (1.0f + SelectFormExp(-x[i]));
    sigmoid_mismatches += !same(sigmoid[i], want_sigmoid);
    softplus_mismatches += !same(softplus[i], SelectFormSoftplus(x[i]));
  }
  EXPECT_EQ(sigmoid_mismatches, 0u) << "of " << x.size();
  EXPECT_EQ(softplus_mismatches, 0u) << "of " << x.size();
}

TEST(SoftplusKernelTest, WithinHalfAMillionthOfTheDoubleFormOnEveryKernel) {
  // NaN and infinities, then [-120, 120] in steps of 1e-3. A NaN must stay
  // NaN, so a poisoned decoder pass leaves a non-finite log-ratio, which
  // generation rejects. Odd length: the simd vector body and its tail.
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> x = {std::nanf(""), inf, -inf, std::nanf(""), inf, -inf};
  for (int i = 0; i <= 240000; ++i) {
    x.push_back(static_cast<float>(-120.0 + 1e-3 * i));
  }
  std::vector<float> got(x.size());
  std::vector<GemmKernelKind> kinds = {GemmKernelKind::kBlocked};
  if (SimdKernelAvailable()) kinds.push_back(GemmKernelKind::kSimd);
  for (GemmKernelKind kind : kinds) {
    SCOPED_TRACE(GemmKernelKindName(kind));
    ScopedKernel scoped(kind);
    SoftplusVec(x.data(), got.data(), x.size());
    double max_err = 0.0;
    for (size_t i = 6; i < x.size(); ++i) {
      const double v = x[i];
      const double want = std::max(v, 0.0) + std::log1p(std::exp(-std::abs(v)));
      max_err = std::max(max_err, std::abs(got[i] - want));
    }
    EXPECT_LE(max_err, 5e-7);
    for (size_t i = 0; i < 6; i += 3) {
      EXPECT_TRUE(std::isnan(got[i]));
      EXPECT_EQ(got[i + 1], inf);
      EXPECT_GE(got[i + 2], 0.0f);
      EXPECT_LE(got[i + 2], 1.2e-38f);
    }
  }
}

/// The double-precision Box–Muller on the 24-bit uniforms of one word.
void DoubleBoxMuller(uint64_t word, double* cos_out, double* sin_out) {
  const double u1 = static_cast<double>((word >> 40) + 1) * 0x1.0p-24;
  const double u2 = static_cast<double>((word >> 16) & 0xFFFFFF) * 0x1.0p-24;
  const double r = std::sqrt(-2.0 * std::log(u1));
  *cos_out = r * std::cos(6.283185307179586 * u2);
  *sin_out = r * std::sin(6.283185307179586 * u2);
}

TEST(StandardNormalKernelTest, TakesOneRngWordPerPairOfValues) {
  // Odd and even n, around the fill loop's 1 024-value blocks and at a
  // 512 x 23 window. The values are the transform of exactly the next
  // ceil(n/2) words, and nothing past out[n - 1] is written.
  const float sentinel = 12345.0f;
  for (size_t n : {0u, 1u, 2u, 3u, 22u, 23u, 1023u, 1024u, 1025u, 2047u,
                   2048u, 2049u, 11776u, 11777u}) {
    util::Rng rng(77 + n);
    util::Rng replay = rng;
    std::vector<float> got(n + 1, sentinel);
    StandardNormalVec(rng, got.data(), n);
    std::vector<uint64_t> words((n + 1) / 2);
    for (uint64_t& w : words) w = replay.NextUint64();
    EXPECT_EQ(rng.NextUint64(), replay.NextUint64()) << "n=" << n;
    std::vector<float> want(n + 1, sentinel);
    internal::StandardNormalFromWords(words.data(), want.data(), n);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * 4), 0)
        << "n=" << n;
    EXPECT_EQ(Bits(got[n]), Bits(sentinel)) << "n=" << n;
    if (n % 2 == 1) {
      // The last word's cosine, its sine dropped.
      std::vector<float> full(n + 1);
      internal::StandardNormalFromWords(words.data(), full.data(), n + 1);
      EXPECT_EQ(Bits(got[n - 1]), Bits(full[n - 1])) << "n=" << n;
    }
  }
}

TEST(StandardNormalKernelTest, WithinFourMillionthsOfTheDoubleFormula) {
  // u1 = (bits 40..63 + 1) / 2^24 and u2 = bits 16..39 / 2^24; bits 0..15
  // are unused. The grid takes u1 from 2^-24 to 1 (the exponent split's
  // seam at sqrt(1/2) included) and u2 from 0 to 1 - 2^-24 (every octant
  // seam of the quadrant reduction included); then 2^20 seeded words. The
  // transform does not dispatch, so every kernel gives the same bits.
  std::vector<uint64_t> words;
  const uint64_t u1_bits[] = {0,        1,        2,        3,
                              1u << 22, 11863282, 11863283, (1u << 23) - 1,
                              1u << 23, (1u << 24) - 2, (1u << 24) - 1};
  const uint64_t u2_bits[] = {0,        1,        (1u << 21) - 1, 1u << 21,
                              (1u << 21) + 1, (1u << 22) - 1, 1u << 22,
                              3u << 21, 1u << 23, 5u << 21, 3u << 22,
                              7u << 21, (1u << 24) - 2, (1u << 24) - 1};
  for (uint64_t a : u1_bits) {
    for (uint64_t b : u2_bits) words.push_back(a << 40 | b << 16 | 0xBEEF);
  }
  util::Rng rng(5);
  for (int i = 0; i < (1 << 20); ++i) words.push_back(rng.NextUint64());

  std::vector<float> first;
  for (GemmKernelKind kind : FastKernels()) {
    SCOPED_TRACE(GemmKernelKindName(kind));
    ScopedKernel scoped(kind);
    std::vector<float> got(2 * words.size());
    internal::StandardNormalFromWords(words.data(), got.data(), got.size());
    double max_err = 0.0;
    for (size_t i = 0; i < words.size(); ++i) {
      double c = 0.0;
      double s = 0.0;
      DoubleBoxMuller(words[i], &c, &s);
      max_err = std::max({max_err, std::abs(got[2 * i] - c),
                          std::abs(got[2 * i + 1] - s)});
    }
    EXPECT_LE(max_err, 4e-6);
    // u1 = 1 gives r = 0 exactly; u1 = 2^-24 gives the largest radius
    // (both at u2 = 0, where the cosine is 1).
    const size_t u1_is_one = (std::size(u1_bits) - 1) * std::size(u2_bits);
    EXPECT_EQ(got[2 * u1_is_one], 0.0f);
    EXPECT_NEAR(got[0], std::sqrt(48.0 * std::log(2.0)), 4e-6);
    if (first.empty()) {
      first = got;
    } else {
      EXPECT_EQ(std::memcmp(first.data(), got.data(), got.size() * 4), 0);
    }
  }
}

TEST(StandardNormalKernelTest, DrawsAreStandardNormal) {
  constexpr size_t kN = 1u << 20;
  std::vector<float> z(kN);
  util::Rng rng(2026);
  StandardNormalVec(rng, z.data(), kN);
  size_t out_of_range = 0;
  double sum = 0.0;
  for (float v : z) {
    out_of_range += !(std::isfinite(v) && std::abs(v) <= 5.78f);
    sum += v;
  }
  EXPECT_EQ(out_of_range, 0u);
  const double mean = sum / kN;
  double sq = 0.0;
  for (float v : z) sq += (v - mean) * (v - mean);
  EXPECT_NEAR(mean, 0.0, 0.005);
  EXPECT_NEAR(sq / kN, 1.0, 0.005);
  // One-sample Kolmogorov–Smirnov distance to Phi, against its 1% critical
  // value 1.628 / sqrt(n).
  std::sort(z.begin(), z.end());
  double ks = 0.0;
  for (size_t i = 0; i < kN; ++i) {
    const double phi = 0.5 * std::erfc(-z[i] / std::sqrt(2.0));
    ks = std::max({ks, static_cast<double>(i + 1) / kN - phi,
                   phi - static_cast<double>(i) / kN});
  }
  EXPECT_LT(ks, 1.628 / std::sqrt(static_cast<double>(kN)));
}

TEST(KernelDispatchTest, SetKindSwitchesImplementations) {
  // The blocked kernel differs from ReferenceGemm in summation order, so on
  // a shape with a long k accumulation the bits generally differ while
  // values agree.
  util::Rng rng(2718);
  const Matrix a = RandomMatrix(16, 500, rng);
  const Matrix b = RandomMatrix(500, 16, rng);
  Matrix ref;
  ReferenceGemm(a, false, b, false, 1.0f, 0.0f, &ref);
  Matrix via_blocked;
  {
    ScopedKernel blocked(GemmKernelKind::kBlocked);
    EXPECT_EQ(ActiveGemmKernel(), GemmKernelKind::kBlocked);
    Gemm(a, false, b, false, 1.0f, 0.0f, &via_blocked);
  }
  EXPECT_LE(GemmRelError(a, false, b, false, 1.0f, 0.0f, nullptr, ref,
                         via_blocked),
            kTol);
  if (SimdKernelAvailable()) {
    Matrix via_simd;
    {
      ScopedKernel simd(GemmKernelKind::kSimd);
      EXPECT_EQ(ActiveGemmKernel(), GemmKernelKind::kSimd);
      Gemm(a, false, b, false, 1.0f, 0.0f, &via_simd);
    }
    EXPECT_LE(GemmRelError(a, false, b, false, 1.0f, 0.0f, nullptr, ref,
                           via_simd),
              kTol);
#if defined(__x86_64__) || defined(__i386__)
    // On x86 the blocked kernel is built for the baseline ISA (no FMA) and
    // simd contracts every k step into an FMA, so over k = 500 some output
    // bits differ: Gemm really ran two different kernels.
    bool any_bit_differs = false;
    for (size_t i = 0; i < via_simd.size(); ++i) {
      any_bit_differs |= via_simd.data()[i] != via_blocked.data()[i];
    }
    EXPECT_TRUE(any_bit_differs);
#endif
  }
}

TEST(ScratchArenaTest, AcquireReleaseRoundTrip) {
  ScratchArena arena;
  EXPECT_EQ(arena.pooled(), 0u);
  Matrix m = arena.Acquire();
  m.Resize(4, 4);
  m.Fill(1.0f);
  arena.Release(std::move(m));
  EXPECT_EQ(arena.pooled(), 1u);
  Matrix back = arena.Acquire();
  EXPECT_EQ(arena.pooled(), 0u);
  back.Resize(2, 8);  // same element count: must not allocate, just reshape
  EXPECT_EQ(back.rows(), 2u);
  EXPECT_EQ(back.cols(), 8u);
}

}  // namespace
}  // namespace deepaqp::nn
