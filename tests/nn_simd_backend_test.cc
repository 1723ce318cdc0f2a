// The simd GEMM backend's own contract, beyond the exhaustive
// reference-accuracy sweep in nn_gemm_kernel_test.cc (which already covers
// every dispatchable backend):
//  * a shape harness targeted at the simd micro-kernel's boundaries (the
//    4x8 tile, the paired 4x16 AVX2 panels, the kKc=256 K-block seam);
//  * bit-identical output across thread counts (same determinism contract
//    the blocked kernel carries);
//  * fused bias+activation exactly equal to the unfused pipeline under
//    simd (both route through the one scalar epilogue definition);
//  * the vectorized sigmoid fast path within 1e-5 of the std::exp form,
//    with the Bernoulli fusion consuming the RNG stream identically and
//    giving rng.Bernoulli's bits, edge logits included (NaN gives 0 in the
//    vector body as in the tail);
//  * dispatch policy: the CPU-chosen default is simd exactly when the ISA
//    is there, and SetGemmKernel(kSimd) CHECK-fails on hardware without it
//    (simulated via SetCpuFeaturesForTest), never a silent fallback;
//  * an end-to-end drift gate: a seeded VAE sampling run executed under
//    blocked vs simd yields fig2-style COUNT/SUM/AVG estimates within a
//    small relative bound. The backends are NOT bit-identical to each
//    other (different k-accumulation orders), so this pins down the only
//    thing a backend swap is allowed to change: O(eps)-level noise that
//    must not move aggregate estimates by more than kDriftBound.
//
// Every test skips (rather than fails) on hardware where the simd backend
// cannot run, so the suite is green on any machine.

#include "nn/kernels.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "aqp/executor.h"
#include "aqp/query.h"
#include "data/generators.h"
#include "nn/matrix.h"
#include "util/cpu_features.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "vae/vae_model.h"

namespace deepaqp::nn {
namespace {

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

/// Same forward-error-normalized metric as nn_gemm_kernel_test.cc: max
/// |want - got| / (1 + (|A| @ |B|)_ij), the scale an FMA-contracted or
/// reordered k-sum may legitimately perturb.
double GemmRelError(const Matrix& a, bool ta, const Matrix& b, bool tb,
                    const Matrix& want, const Matrix& got) {
  EXPECT_EQ(want.rows(), got.rows());
  EXPECT_EQ(want.cols(), got.cols());
  Matrix mag;
  ReferenceGemm(Abs(a), ta, Abs(b), tb, 1.0f, 0.0f, &mag);
  double worst = 0.0;
  for (size_t i = 0; i < want.size(); ++i) {
    worst = std::max(worst,
                     std::abs(static_cast<double>(want.data()[i]) -
                              static_cast<double>(got.data()[i])) /
                         (1.0 + mag.data()[i]));
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

#define SKIP_WITHOUT_SIMD()                                                  \
  if (!SimdKernelAvailable()) {                                              \
    GTEST_SKIP() << "simd backend unavailable on this machine (cpu: "        \
                 << util::CpuFeaturesToString(util::CpuInfo()) << ")";       \
  }

TEST(SimdBackendTest, MatchesReferenceAtMicroKernelBoundaries) {
  SKIP_WITHOUT_SIMD();
  // Shapes chosen to straddle every seam of the simd driver: m around the
  // 4-row micro-tile and the kMc=32 task block, n around one 8-wide panel,
  // two panels (the paired AVX2 16-column path), and a ragged third, k
  // around the kKc=256 cache block so multi-block beta=1 accumulation runs.
  const size_t kMs[] = {1, 3, 4, 5, 31, 32, 33};
  const size_t kNs[] = {1, 7, 8, 9, 15, 16, 17, 24, 33};
  const size_t kKs[] = {1, 2, 255, 256, 257};
  util::Rng rng(20250807);
  for (size_t m : kMs) {
    for (size_t n : kNs) {
      for (size_t k : kKs) {
        for (bool ta : {false, true}) {
          for (bool tb : {false, true}) {
            const Matrix a =
                ta ? RandomMatrix(k, m, rng) : RandomMatrix(m, k, rng);
            const Matrix b =
                tb ? RandomMatrix(n, k, rng) : RandomMatrix(k, n, rng);
            Matrix want;
            ReferenceGemm(a, ta, b, tb, 1.0f, 0.0f, &want);
            Matrix got;
            ScopedKernel simd(GemmKernelKind::kSimd);
            Gemm(a, ta, b, tb, 1.0f, 0.0f, &got);
            EXPECT_LE(GemmRelError(a, ta, b, tb, want, got), kTol)
                << "m=" << m << " k=" << k << " n=" << n << " ta=" << ta
                << " tb=" << tb;
          }
        }
      }
    }
  }
}

TEST(SimdBackendTest, GemmBitIdenticalAcrossThreadCounts) {
  SKIP_WITHOUT_SIMD();
  ScopedKernel simd(GemmKernelKind::kSimd);
  util::Rng rng(99);
  const Matrix a = RandomMatrix(257, 300, rng);
  const Matrix b = RandomMatrix(300, 65, rng);
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

TEST(SimdBackendTest, ShardedGemmTNMatchesReference) {
  SKIP_WITHOUT_SIMD();
  util::Rng rng(123);
  const Matrix a = RandomMatrix(300, 33, rng);  // batch x in
  const Matrix b = RandomMatrix(300, 17, rng);  // batch x out
  Matrix ref_c;
  ReferenceGemm(a, true, b, false, 1.0f, 0.0f, &ref_c);
  ScopedKernel simd(GemmKernelKind::kSimd);
  util::SetGlobalThreads(1);
  Matrix base(33, 17);
  ShardedGemmTN(a, b, &base);
  EXPECT_LE(GemmRelError(a, true, b, false, ref_c, base), kTol);
  for (int threads : {2, 8}) {
    util::SetGlobalThreads(threads);
    Matrix c(33, 17);
    ShardedGemmTN(a, b, &c);
    EXPECT_TRUE(BitIdentical(base, c)) << "threads=" << threads;
  }
  util::SetGlobalThreads(0);
}

TEST(SimdBackendTest, FusedLinearForwardMatchesUnfusedPipeline) {
  SKIP_WITHOUT_SIMD();
  util::Rng rng(55);
  const Activation kActs[] = {Activation::kIdentity, Activation::kRelu,
                              Activation::kLeakyRelu, Activation::kSigmoid,
                              Activation::kTanh};
  for (size_t batch : {1u, 5u, 33u, 129u}) {
    for (size_t out_dim : {1u, 8u, 17u, 65u}) {
      const Matrix x = RandomMatrix(batch, 24, rng);
      const Matrix w = RandomMatrix(24, out_dim, rng);
      const Matrix bias = RandomMatrix(1, out_dim, rng);
      for (Activation act : kActs) {
        ScopedKernel simd(GemmKernelKind::kSimd);
        Matrix fused;
        FusedLinearForward(x, w, bias, act, 0.2f, &fused);
        Matrix plain;
        Gemm(x, false, w, false, 1.0f, 0.0f, &plain);
        AddRowBroadcast(bias, &plain);
        ApplyActivation(act, 0.2f, plain.data(), plain.size());
        EXPECT_TRUE(BitIdentical(plain, fused))
            << "batch=" << batch << " out=" << out_dim
            << " act=" << static_cast<int>(act);
      }
    }
  }
}

TEST(SimdBackendTest, SigmoidFastPathWithinTolerance) {
  SKIP_WITHOUT_SIMD();
  ScopedKernel simd(GemmKernelKind::kSimd);
  std::vector<float> x;
  for (float v = -30.0f; v <= 30.0f; v += 0.01f) x.push_back(v);
  // Odd length on purpose: exercises the vector body and the scalar tail.
  x.push_back(0.123f);
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

TEST(SimdBackendTest, BernoulliFusionConsumesSameRngStream) {
  SKIP_WITHOUT_SIMD();
  ScopedKernel simd(GemmKernelKind::kSimd);
  util::Rng rng_a(31337);
  util::Rng rng_b(31337);
  std::vector<float> logits;
  util::Rng gen(4);
  for (size_t i = 0; i < 1001; ++i) {
    logits.push_back(static_cast<float>(gen.NextGaussian() * 3.0));
  }
  // The edges, twice, at offsets that put them in the 8-lane body and in
  // the scalar tail: p = 1, the clamped exp's smallest p (2^-126), logits
  // whose exact sigmoid would be denormal, signed zeros, NaN, infinities.
  const float inf = std::numeric_limits<float>::infinity();
  const float edges[] = {0.0f,   -0.0f,  17.0f,    40.0f,   1e30f,
                         FLT_MAX, -40.0f, -88.0f,   -90.0f,  -95.0f,
                         -100.0f, -103.0f, -1e30f, -FLT_MAX, std::nanf(""),
                         inf,     -inf};
  for (int copy = 0; copy < 2; ++copy) {
    for (float v : edges) logits.push_back(v);
    logits.push_back(0.5f);
  }
  std::vector<float> fused(logits.size());
  SigmoidBernoulliVec(logits.data(), logits.size(), rng_a, fused.data());
  std::vector<float> probs(logits.size());
  SigmoidVec(logits.data(), probs.data(), logits.size());
  for (size_t i = 0; i < logits.size(); ++i) {
    const float want = rng_b.Bernoulli(probs[i]) ? 1.0f : 0.0f;
    EXPECT_EQ(Bits(fused[i]), Bits(want)) << "i=" << i << " x=" << logits[i];
    if (std::isnan(logits[i]) || logits[i] == -inf) {
      EXPECT_EQ(Bits(fused[i]), Bits(0.0f)) << "x=" << logits[i];
    }
    if (probs[i] == 1.0f) {
      EXPECT_EQ(fused[i], 1.0f) << "x=" << logits[i];
    }
  }
  EXPECT_EQ(rng_a.NextUint64(), rng_b.NextUint64());
}

TEST(SimdDispatchDeathTest, ExplicitSelectionFailsOnUnsupportedHardware) {
  // Simulate a CPU with no vector ISA at all: asking for simd must die
  // loudly rather than fall back or fault. The death test runs in a child
  // process, so the masked CPU never reaches the other tests.
  const util::CpuFeatures none{};
  EXPECT_DEATH(
      {
        util::SetCpuFeaturesForTest(&none);
        SetGemmKernel(GemmKernelKind::kSimd);
      },
      "simd kernel unavailable");
}

TEST(SimdDispatchTest, AutoSelectsBestAvailableBackend) {
  // Every test that switches the kernel restores it, so this is the kind
  // CPU detection chose at first use.
  EXPECT_EQ(ActiveGemmKernel(), SimdKernelAvailable()
                                    ? GemmKernelKind::kSimd
                                    : GemmKernelKind::kBlocked);
}

// --- End-to-end drift gate -------------------------------------------------

struct Estimates {
  double count = 0.0;
  double sum = 0.0;
  double avg = 0.0;
};

/// Fig. 2-style scalar aggregates over a generated sample: COUNT of a
/// selective filter, SUM and AVG of numeric measures under it.
Estimates RunAggregates(const relation::Table& sample) {
  // Census attribute 8 = age (numeric), 13 = hours_per_week (numeric).
  aqp::Predicate working_age;
  working_age.conditions.push_back(
      {/*attr=*/8, aqp::CmpOp::kGe, /*value=*/25.0});
  working_age.conditions.push_back(
      {/*attr=*/8, aqp::CmpOp::kLe, /*value=*/55.0});

  Estimates out;
  aqp::AggregateQuery q;
  q.filter = working_age;

  q.agg = aqp::AggFunc::kCount;
  auto count = aqp::ExecuteExact(q, sample);
  EXPECT_TRUE(count.ok());
  out.count = (*count).Scalar();

  q.agg = aqp::AggFunc::kSum;
  q.measure_attr = 13;
  auto sum = aqp::ExecuteExact(q, sample);
  EXPECT_TRUE(sum.ok());
  out.sum = (*sum).Scalar();

  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = 8;
  auto avg = aqp::ExecuteExact(q, sample);
  EXPECT_TRUE(avg.ok());
  out.avg = (*avg).Scalar();
  return out;
}

double RelDiff(double a, double b) {
  return std::abs(a - b) / std::max(1.0, std::max(std::abs(a), std::abs(b)));
}

TEST(SimdBackendTest, EndToEndSamplingEstimatesDriftWithinBound) {
  SKIP_WITHOUT_SIMD();
  // One seeded model, one seeded RNG per run; the ONLY variable is the GEMM
  // backend under the decoder. The backends differ by O(eps) per logit, so
  // categorical decode decisions and Bernoulli draws near a threshold can
  // flip for a handful of tuples — aggregate estimates must not move more
  // than this bound. (Measured drift is ~1e-3; the bound leaves headroom
  // but still catches any real kernel bug, which shows up as O(1) drift.)
  constexpr double kDriftBound = 0.05;

  const relation::Table table =
      data::GenerateCensus({.rows = 3000, .seed = 71});
  vae::VaeAqpOptions options;
  options.epochs = 3;
  options.hidden_dim = 32;
  options.seed = 20250807;
  auto model = vae::VaeAqpModel::Train(table, options);
  ASSERT_TRUE(model.ok()) << model.status().ToString();

  const size_t n = 4000;
  Estimates blocked_est;
  {
    ScopedKernel blocked(GemmKernelKind::kBlocked);
    util::Rng rng(4242);
    blocked_est = RunAggregates((*model)->Generate(n, vae::kTPlusInf, rng));
  }
  Estimates simd_est;
  {
    ScopedKernel simd(GemmKernelKind::kSimd);
    util::Rng rng(4242);
    simd_est = RunAggregates((*model)->Generate(n, vae::kTPlusInf, rng));
  }

  EXPECT_LE(RelDiff(blocked_est.count, simd_est.count), kDriftBound)
      << "COUNT: blocked=" << blocked_est.count
      << " simd=" << simd_est.count;
  EXPECT_LE(RelDiff(blocked_est.sum, simd_est.sum), kDriftBound)
      << "SUM: blocked=" << blocked_est.sum << " simd=" << simd_est.sum;
  EXPECT_LE(RelDiff(blocked_est.avg, simd_est.avg), kDriftBound)
      << "AVG: blocked=" << blocked_est.avg << " simd=" << simd_est.avg;
  // Sanity: the sample itself is meaningful (a broken filter or an empty
  // sample would make the drift test vacuous).
  EXPECT_GT(blocked_est.count, 0.0);
  EXPECT_GT(simd_est.count, 0.0);
}

}  // namespace
}  // namespace deepaqp::nn
