// The compute-kernel layer behind nn::Gemm, nn::ShardedGemmTN, and the
// fused forward paths. Two implementations sit behind one dispatch, with
// ReferenceGemm (kernels_reference.cc, the seed repository's triple loop)
// kept outside it as the correctness oracle:
//
//  * The blocked kernel (this file) — op(A)/op(B) are expressed as stride
//    views (which folds all four transpose combinations into one code
//    path), packed into contiguous panels, and consumed by a register-tiled
//    kMr x kNr micro-kernel whose inner loops are fixed-length and
//    restrict-qualified so the compiler vectorizes them. C row blocks are
//    distributed over the thread pool; the block layout depends only on the
//    shape and every C element accumulates in one fixed k-order, so results
//    are bit-identical at every --threads setting.
//  * The simd kernel (kernels_simd.cc) — the same packed-panel layout fed
//    to a hand-written AVX2/FMA (or NEON) micro-kernel. Selected at runtime
//    only when util::CpuInfo() reports the ISA, so one binary runs — and
//    picks its fastest safe backend — on every machine.
//
// This file is compiled with -O3 -funroll-loops but the project-baseline
// ISA (see src/nn/CMakeLists.txt): only kernels_simd.cc carries explicit
// vector flags, and it is guarded by runtime CPU detection. That makes the
// blocked kernel's numerics identical on every host — the old -march=native
// build made them a function of the build machine and could SIGILL on a
// lesser one. kernels_reference.cc keeps the project-default flags so it
// reproduces the seed's numerics and throughput exactly.

#include "nn/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/aligned_buffer.h"
#include "nn/kernels_internal.h"
#include "util/cpu_features.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace deepaqp::nn {

namespace internal {

void PackB(const View& b, size_t k0, size_t kc, size_t n, float* out) {
  const size_t n_panels = CeilDiv(n, kNr);
  for (size_t p = 0; p < n_panels; ++p) {
    const size_t j0 = p * kNr;
    const size_t n_eff = std::min(kNr, n - j0);
    float* panel = out + p * (kc * kNr);
    if (n_eff == kNr && b.cs == 1) {
      // Common contiguous case (no B transpose): straight row copies.
      for (size_t kk = 0; kk < kc; ++kk) {
        std::memcpy(panel + kk * kNr, b.base + (k0 + kk) * b.rs + j0,
                    kNr * sizeof(float));
      }
    } else {
      for (size_t kk = 0; kk < kc; ++kk) {
        const float* src = b.base + (k0 + kk) * b.rs + j0 * b.cs;
        float* dst = panel + kk * kNr;
        size_t jr = 0;
        for (; jr < n_eff; ++jr) dst[jr] = src[jr * b.cs];
        for (; jr < kNr; ++jr) dst[jr] = 0.0f;
      }
    }
  }
}

void PackA(const View& a, size_t i0, size_t mc, size_t k0, size_t kc,
           float alpha, float* out) {
  const size_t m_panels = CeilDiv(mc, kMr);
  for (size_t mp = 0; mp < m_panels; ++mp) {
    const size_t r0 = i0 + mp * kMr;
    const size_t m_eff = std::min(kMr, mc - mp * kMr);
    float* panel = out + mp * (kc * kMr);
    for (size_t kk = 0; kk < kc; ++kk) {
      const float* src = a.base + r0 * a.rs + (k0 + kk) * a.cs;
      float* dst = panel + kk * kMr;
      size_t ir = 0;
      for (; ir < m_eff; ++ir) dst[ir] = alpha * src[ir * a.rs];
      for (; ir < kMr; ++ir) dst[ir] = 0.0f;
    }
  }
}

void ApplyEpilogueRow(const Epilogue& e, float* row, size_t n) {
  if (e.bias != nullptr) {
    const float* __restrict__ bias = e.bias;
    float* __restrict__ r = row;
#pragma GCC ivdep
    for (size_t j = 0; j < n; ++j) r[j] += bias[j];
  }
  ApplyActivation(e.act, e.leaky_slope, row, n);
}

}  // namespace internal

namespace {

using internal::CeilDiv;
using internal::Epilogue;
using internal::kKc;
using internal::kMc;
using internal::kMr;
using internal::kNr;
using internal::kParallelFlopCutoff;
using internal::View;

// Chaos site shared by both fused and plain GEMM dispatch: poisons one output
// element with a quiet NaN, modeling a transient compute fault (bad SIMD
// lane, corrupted scratch). Downstream sentinels must catch and contain it.
inline void MaybePoisonGemmOutput(Matrix* out) {
  if (out->size() > 0 && util::FailpointTriggered("nn/gemm")) {
    out->data()[0] = std::numeric_limits<float>::quiet_NaN();
  }
}

// ---------------------------------------------------------------------------
// Kernel selection
// ---------------------------------------------------------------------------

/// Best backend the running CPU supports: simd when the intrinsics TU is
/// compiled in and the CPU reports the ISA, else blocked.
GemmKernelKind BestAvailableKernel() {
  return SimdKernelAvailable() ? GemmKernelKind::kSimd
                               : GemmKernelKind::kBlocked;
}

GemmKernelKind& KernelSlot() {
  static GemmKernelKind kind = BestAvailableKernel();
  return kind;
}

}  // namespace

namespace internal {

namespace {

inline uint32_t FloatBits(float v) {
  uint32_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

inline float BitsToFloat(uint32_t b) {
  float v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

/// `pick ? a : b` as a bitwise blend on the float bit patterns. GCC leaves
/// a float select in these loops as control flow ("not vectorized: control
/// flow in loop"); the blend vectorizes at the baseline ISA and returns
/// exactly the selected operand, NaN payloads and signed zeros included.
inline float Select(bool pick, float a, float b) {
  const uint32_t mask = 0u - static_cast<uint32_t>(pick);
  return BitsToFloat((mask & FloatBits(a)) | (~mask & FloatBits(b)));
}

}  // namespace

/// expf via 2^(x * log2 e): round-to-nearest split into integer and
/// fractional exponent (the 1.5 * 2^23 trick keeps it branch-free and
/// vectorizable), degree-6 polynomial for the fractional part, exponent
/// reassembled through the float bit layout. Pure float arithmetic — the
/// result is a deterministic function of the input on every machine that
/// rounds to nearest. Max relative error ~1e-7 over the clamped range. The
/// clamps are Selects, so a NaN input stays NaN. (kernels_simd.cc
/// evaluates the same polynomial with vector intrinsics.)
inline float FastExp(float x) {
  float z = x * 1.44269504088896341f;  // log2(e)
  z = Select(z < -126.0f, -126.0f, z);
  z = Select(z > 126.0f, 126.0f, z);
  const float shifted = z + 12582912.0f;  // 1.5 * 2^23
  const int32_t n = static_cast<int32_t>(FloatBits(shifted)) - 0x4B400000;
  const float f = z - (shifted - 12582912.0f);  // f in [-0.5, 0.5]
  const float u = f * 0.693147180559945286f;    // ln 2
  float p = 1.0f / 720.0f;
  p = p * u + 1.0f / 120.0f;
  p = p * u + 1.0f / 24.0f;
  p = p * u + 1.0f / 6.0f;
  p = p * u + 0.5f;
  p = p * u + 1.0f;
  p = p * u + 1.0f;
  return p * BitsToFloat(static_cast<uint32_t>(n + 127) << 23);
}

float Softplus(float x) {
  const bool negative = x < 0.0f;
  const float e = FastExp(Select(negative, x, -x));  // exp(-|x|)
  const float s = e / (2.0f + e);
  float p = 1.0f / 11.0f;
  for (float c : {1.0f / 9.0f, 1.0f / 7.0f, 1.0f / 5.0f, 1.0f / 3.0f, 1.0f}) {
    p = p * (s * s) + c;
  }
  return Select(negative, 0.0f, x) + 2.0f * s * p;
}

/// One Box–Muller pair from one 64-bit word: u1 = (bits 40..63 + 1) / 2^24
/// in (0, 1] and u2 = bits 16..39 / 2^24 in [0, 1) give
/// (r cos θ, r sin θ) with r = sqrt(-2 ln u1) and θ = 2π u2.
///  * ln u1: u1 = m 2^e with m in [sqrt(1/2), sqrt(2)) (the exponent split
///    of musl's logf), and ln m = 2 atanh(s) with s = (m - 1) / (m + 1),
///    |s| < 0.172, summed as the odd series through s^9 / 9.
///  * θ: the quadrant q = round(4 u2) and the remainder in turns come from
///    the 24-bit integer exactly, so the polynomials only see |a| <= π/4:
///    sin through a^9 / 9!, cos through a^10 / 10!. The quadrant then
///    swaps and negates them with bit masks.
/// |error| < 1e-6 against the double formula on the same uniforms; |z| <=
/// sqrt(48 ln 2) = 5.77.
inline void BoxMullerPair(uint64_t x, float* cos_out, float* sin_out) {
  const int32_t k1 = static_cast<int32_t>(x >> 40) + 1;  // [1, 2^24]
  const int32_t k2 = static_cast<int32_t>((x >> 16) & 0xFFFFFFu);
  const float u1 = static_cast<float>(k1) * 0x1.0p-24f;
  const uint32_t ix = FloatBits(u1) - 0x3F3504F3u;  // bits of sqrt(1/2)
  const int32_t e = static_cast<int32_t>(ix) >> 23;
  const float f = BitsToFloat((ix & 0x007FFFFFu) + 0x3F3504F3u) - 1.0f;
  const float s = f / (2.0f + f);
  const float s2 = s * s;
  float p = 1.0f / 9.0f;
  p = p * s2 + 1.0f / 7.0f;
  p = p * s2 + 1.0f / 5.0f;
  p = p * s2 + 1.0f / 3.0f;
  p = p * s2 + 1.0f;
  const float ln_u1 =
      static_cast<float>(e) * 0.693147180559945286f + 2.0f * s * p;
  const float r = std::sqrt(-2.0f * ln_u1);

  const int32_t q = (k2 + (1 << 21)) >> 22;  // nearest quarter turn, 0..4
  const float a = static_cast<float>(k2 - (q << 22)) *
                  (6.28318530717958648f * 0x1.0p-24f);  // [-π/4, π/4)
  const float a2 = a * a;
  float sp = 1.0f / 362880.0f;
  sp = sp * a2 - 1.0f / 5040.0f;
  sp = sp * a2 + 1.0f / 120.0f;
  sp = sp * a2 - 1.0f / 6.0f;
  const float sin_a = a + a * a2 * sp;
  float cp = -1.0f / 3628800.0f;
  cp = cp * a2 + 1.0f / 40320.0f;
  cp = cp * a2 - 1.0f / 720.0f;
  cp = cp * a2 + 1.0f / 24.0f;
  cp = cp * a2 - 0.5f;
  const float cos_a = 1.0f + a2 * cp;
  // cos(qπ/2 + a), sin(qπ/2 + a): odd q swaps the pair; cos is negated for
  // q in {1, 2}, sin for q in {2, 3}.
  const uint32_t swap = 0u - static_cast<uint32_t>(q & 1);
  const uint32_t cos_bits =
      (swap & FloatBits(sin_a)) | (~swap & FloatBits(cos_a));
  const uint32_t sin_bits =
      (swap & FloatBits(cos_a)) | (~swap & FloatBits(sin_a));
  const uint32_t cos_sign = static_cast<uint32_t>((q + 1) & 2) << 30;
  const uint32_t sin_sign = static_cast<uint32_t>(q & 2) << 30;
  *cos_out = r * BitsToFloat(cos_bits ^ cos_sign);
  *sin_out = r * BitsToFloat(sin_bits ^ sin_sign);
}

namespace {

/// acc[ir][jr] += sum_kk a_panel(kk, ir) * b_panel(kk, jr). Fixed-trip
/// inner loops over a kMr x kNr register block; the jr loop is the
/// vectorized axis.
inline void MicroKernel(const float* __restrict__ a_panel,
                        const float* __restrict__ b_panel, size_t kc,
                        float* __restrict__ acc) {
  for (size_t kk = 0; kk < kc; ++kk) {
    const float* __restrict__ arow = a_panel + kk * kMr;
    const float* __restrict__ brow = b_panel + kk * kNr;
    for (size_t ir = 0; ir < kMr; ++ir) {
      const float av = arow[ir];
      float* __restrict__ accr = acc + ir * kNr;
#pragma GCC ivdep
      for (size_t jr = 0; jr < kNr; ++jr) accr[jr] += av * brow[jr];
    }
  }
}

AlignedVector<float>& TlsBPack() {
  thread_local AlignedVector<float> buf;
  return buf;
}

}  // namespace

/// Determinism: the kb / task / panel decomposition is a pure function of
/// (m, k, n); each C element is written by exactly one task and accumulates
/// its k-products in ascending order (within and across K blocks), so the
/// output is bit-identical at every thread count.
void BlockedGemmDriver(const View& a, const View& b, size_t m, size_t k,
                       size_t n, float alpha, bool overwrite,
                       const Epilogue* epi, float* c, size_t ldc) {
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    for (size_t i = 0; i < m; ++i) {
      float* row = c + i * ldc;
      if (overwrite) std::memset(row, 0, n * sizeof(float));
      if (epi != nullptr) ApplyEpilogueRow(*epi, row, n);
    }
    return;
  }

  const size_t kblocks = CeilDiv(k, kKc);
  const size_t n_panels = CeilDiv(n, kNr);
  const size_t b_block_stride = n_panels * kKc * kNr;

  // One packed copy of op(B), shared read-only by every task. The buffer is
  // thread-local to the caller; helper lanes read it through the captured
  // pointer while the caller blocks in ParallelFor, so no lifetime hazard.
  AlignedVector<float>& b_pack = TlsBPack();
  if (b_pack.size() < kblocks * b_block_stride) {
    b_pack.resize(kblocks * b_block_stride);
  }
  for (size_t kb = 0; kb < kblocks; ++kb) {
    const size_t k0 = kb * kKc;
    const size_t kc = std::min(kKc, k - k0);
    PackB(b, k0, kc, n, b_pack.data() + kb * b_block_stride);
  }
  const float* b_packed = b_pack.data();

  const size_t tasks = CeilDiv(m, kMc);
  const auto body = [&, b_packed](size_t t) {
    thread_local AlignedVector<float> a_pack;
    const size_t i0 = t * kMc;
    const size_t mc = std::min(kMc, m - i0);
    const size_t m_panels = CeilDiv(mc, kMr);
    if (a_pack.size() < m_panels * kKc * kMr) {
      a_pack.resize(m_panels * kKc * kMr);
    }
    for (size_t kb = 0; kb < kblocks; ++kb) {
      const size_t k0 = kb * kKc;
      const size_t kc = std::min(kKc, k - k0);
      PackA(a, i0, mc, k0, kc, alpha, a_pack.data());
      const bool store = overwrite && kb == 0;
      const float* b_block = b_packed + kb * b_block_stride;
      for (size_t mp = 0; mp < m_panels; ++mp) {
        const float* a_panel = a_pack.data() + mp * (kc * kMr);
        const size_t r0 = i0 + mp * kMr;
        const size_t m_eff = std::min(kMr, mc - mp * kMr);
        for (size_t p = 0; p < n_panels; ++p) {
          const float* b_panel = b_block + p * (kc * kNr);
          float acc[kMr * kNr] = {0.0f};
          MicroKernel(a_panel, b_panel, kc, acc);
          const size_t j0 = p * kNr;
          const size_t n_eff = std::min(kNr, n - j0);
          for (size_t ir = 0; ir < m_eff; ++ir) {
            float* crow = c + (r0 + ir) * ldc + j0;
            const float* accr = acc + ir * kNr;
            if (store) {
              for (size_t jr = 0; jr < n_eff; ++jr) crow[jr] = accr[jr];
            } else {
              for (size_t jr = 0; jr < n_eff; ++jr) crow[jr] += accr[jr];
            }
          }
        }
      }
    }
    if (epi != nullptr) {
      for (size_t i = i0; i < i0 + mc; ++i) {
        ApplyEpilogueRow(*epi, c + i * ldc, n);
      }
    }
  };

  if (tasks >= 2 && m * k * n >= kParallelFlopCutoff) {
    util::ParallelFor(0, tasks, body);
  } else {
    for (size_t t = 0; t < tasks; ++t) body(t);
  }
}

}  // namespace internal

namespace {

/// Routes a packed-panel GEMM to the blocked or simd driver.
inline void PackedGemmDriver(GemmKernelKind kind, const View& a,
                             const View& b, size_t m, size_t k, size_t n,
                             float alpha, bool overwrite, const Epilogue* epi,
                             float* c, size_t ldc) {
  if (kind == GemmKernelKind::kSimd) {
    internal::SimdGemmDriver(a, b, m, k, n, alpha, overwrite, epi, c, ldc);
  } else {
    internal::BlockedGemmDriver(a, b, m, k, n, alpha, overwrite, epi, c,
                                ldc);
  }
}

View OpView(const Matrix& m, bool transposed) {
  if (transposed) return {m.data(), 1, m.cols()};
  return {m.data(), m.cols(), 1};
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

GemmKernelKind ActiveGemmKernel() { return KernelSlot(); }

bool SimdKernelAvailable() {
  if (!internal::SimdBackendCompiled()) return false;
  const util::CpuFeatures& cpu = util::CpuInfo();
#if defined(__aarch64__)
  return cpu.neon;
#else
  return cpu.avx2 && cpu.fma;
#endif
}

void SetGemmKernel(GemmKernelKind kind) {
  DEEPAQP_CHECK(kind != GemmKernelKind::kSimd || SimdKernelAvailable())
      << "simd kernel unavailable: binary ISA '" << internal::SimdBackendIsa()
      << "', cpu features '" << util::CpuFeaturesToString(util::CpuInfo())
      << "'";
  KernelSlot() = kind;
}

const char* GemmKernelKindName(GemmKernelKind kind) {
  switch (kind) {
    case GemmKernelKind::kBlocked:
      return "blocked";
    case GemmKernelKind::kSimd:
      return "simd";
  }
  return "unknown";
}

void Gemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
          float alpha, float beta, Matrix* c) {
  const size_t m = trans_a ? a.cols() : a.rows();
  const size_t k = trans_a ? a.rows() : a.cols();
  const size_t kb = trans_b ? b.cols() : b.rows();
  const size_t n = trans_b ? b.rows() : b.cols();
  DEEPAQP_CHECK_EQ(k, kb);
  bool overwrite = false;
  if (beta == 0.0f) {
    c->Resize(m, n);
    overwrite = true;
  } else {
    DEEPAQP_CHECK_EQ(c->rows(), m);
    DEEPAQP_CHECK_EQ(c->cols(), n);
    if (beta != 1.0f) {
      for (size_t i = 0; i < c->size(); ++i) c->data()[i] *= beta;
    }
  }
  PackedGemmDriver(ActiveGemmKernel(), OpView(a, trans_a), OpView(b, trans_b),
                   m, k, n, alpha, overwrite, nullptr, c->data(), c->cols());
  MaybePoisonGemmOutput(c);
}

void ShardedGemmTN(const Matrix& a, const Matrix& b, Matrix* c,
                   size_t shard_rows) {
  const size_t batch = a.rows();
  DEEPAQP_CHECK_EQ(batch, b.rows());
  DEEPAQP_CHECK_EQ(c->rows(), a.cols());
  DEEPAQP_CHECK_EQ(c->cols(), b.cols());
  DEEPAQP_CHECK_GT(shard_rows, 0u);
  const size_t num_shards = (batch + shard_rows - 1) / shard_rows;
  if (num_shards <= 1) {
    Gemm(a, true, b, false, 1.0f, 1.0f, c);
    return;
  }
  const GemmKernelKind kind = ActiveGemmKernel();
  // One partial per shard, filled in parallel. The shard layout is a pure
  // function of the batch size, so the ascending-order reduction below
  // yields the same bits at every thread count.
  std::vector<Matrix> partials(num_shards);
  util::ParallelFor(0, num_shards, [&](size_t s) {
    const size_t lo = s * shard_rows;
    const size_t hi = std::min(batch, lo + shard_rows);
    Matrix& p = partials[s];
    p = Matrix(a.cols(), b.cols());
    // Shard of the TN product as stride views: op(A) = A^T over rows
    // [lo, hi), i.e. (i, kk) -> A(lo + kk, i); op(B) = B rows [lo, hi).
    const View av{a.data() + lo * a.cols(), 1, a.cols()};
    const View bv{b.data() + lo * b.cols(), b.cols(), 1};
    PackedGemmDriver(kind, av, bv, a.cols(), hi - lo, b.cols(), 1.0f,
                     /*overwrite=*/true, nullptr, p.data(), p.cols());
  });
  for (const Matrix& p : partials) Axpy(1.0f, p, c);
}

void ApplyActivation(Activation act, float leaky_slope, float* data,
                     size_t n) {
  switch (act) {
    case Activation::kIdentity:
      return;
    // Selects, not conditional stores: this TU is built for baseline x86-64,
    // where a conditional store stays one branch per element, and hidden
    // activations' random signs mispredict it. ReLU's select vectorizes to
    // a compare and a mask with the same IEEE results (-0 -> +0, NaN stays
    // NaN).
    case Activation::kRelu:
      for (size_t i = 0; i < n; ++i) {
        data[i] = data[i] <= 0.0f ? 0.0f : data[i];
      }
      return;
    case Activation::kLeakyRelu:
      for (size_t i = 0; i < n; ++i) {
        data[i] = internal::Select(data[i] < 0.0f, data[i] * leaky_slope,
                                   data[i]);
      }
      return;
    case Activation::kSigmoid:
      for (size_t i = 0; i < n; ++i) {
        data[i] = 1.0f / (1.0f + std::exp(-data[i]));
      }
      return;
    case Activation::kTanh:
      for (size_t i = 0; i < n; ++i) data[i] = std::tanh(data[i]);
      return;
  }
}

void FusedLinearForward(const Matrix& x, const Matrix& w, const Matrix& bias,
                        Activation act, float leaky_slope, Matrix* out) {
  DEEPAQP_CHECK_EQ(x.cols(), w.rows());
  const bool has_bias = bias.size() > 0;
  if (has_bias) {
    DEEPAQP_CHECK_EQ(bias.rows(), 1u);
    DEEPAQP_CHECK_EQ(bias.cols(), w.cols());
  }
  out->Resize(x.rows(), w.cols());
  Epilogue epi{has_bias ? bias.data() : nullptr, act, leaky_slope};
  PackedGemmDriver(ActiveGemmKernel(), OpView(x, false), OpView(w, false),
                   x.rows(), x.cols(), w.cols(), 1.0f, /*overwrite=*/true,
                   &epi, out->data(), out->cols());
  MaybePoisonGemmOutput(out);
}

void SigmoidVec(const float* x, float* out, size_t n) {
  if (ActiveGemmKernel() == GemmKernelKind::kSimd) {
    internal::SimdSigmoid(x, out, n);
    return;
  }
  const float* __restrict__ in = x;
  float* __restrict__ o = out;
#pragma GCC ivdep
  for (size_t i = 0; i < n; ++i) {
    o[i] = 1.0f / (1.0f + internal::FastExp(-in[i]));
  }
}

void SoftplusVec(const float* x, float* out, size_t n) {
  if (ActiveGemmKernel() == GemmKernelKind::kSimd) {
    internal::SimdSoftplus(x, out, n);
    return;
  }
  const float* __restrict__ in = x;
  float* __restrict__ o = out;
#pragma GCC ivdep
  for (size_t i = 0; i < n; ++i) o[i] = internal::Softplus(in[i]);
}

void SigmoidBernoulliVec(const float* logits, size_t n, util::Rng& rng,
                         float* bits) {
  thread_local std::vector<float> probs;
  if (probs.size() < n) probs.resize(n);
  SigmoidVec(logits, probs.data(), n);
  // The RNG is a serial stream by contract: one Bernoulli draw per element
  // in index order, exactly like the scalar loop this replaces. The draw is
  // a mask, not a select: GCC compiles `u < p ? 1.0f : 0.0f` to a branch,
  // which mispredicts on random draws. A NaN probability compares false and
  // gives 0.
  for (size_t i = 0; i < n; ++i) {
    const bool one = rng.NextDouble() < static_cast<double>(probs[i]);
    const uint32_t mask = 0u - static_cast<uint32_t>(one);
    bits[i] = internal::BitsToFloat(mask & 0x3F800000u);  // 1.0f or +0.0f
  }
}

namespace internal {

void StandardNormalFromWords(const uint64_t* words, float* out, size_t n) {
  const size_t pairs = n / 2;
  const uint64_t* __restrict__ w = words;
  float* __restrict__ o = out;
  // No libm call and no branch, so GCC vectorizes the loop at the baseline
  // ISA (-fno-math-errno lets std::sqrt become one instruction).
#pragma GCC ivdep
  for (size_t i = 0; i < pairs; ++i) {
    BoxMullerPair(w[i], &o[2 * i], &o[2 * i + 1]);
  }
  if (n % 2 != 0) {
    float sine;  // the last draw's sine is dropped
    BoxMullerPair(w[pairs], &o[n - 1], &sine);
  }
}

}  // namespace internal

void StandardNormalVec(util::Rng& rng, float* out, size_t n) {
  // Draw first, then transform: the fill loop keeps the xoshiro state in
  // registers, and the transform loop is free of the serial dependency.
  constexpr size_t kBlockPairs = 512;
  uint64_t words[kBlockPairs];
  for (size_t done = 0; done < n; done += 2 * kBlockPairs) {
    const size_t count = std::min(n - done, 2 * kBlockPairs);
    const size_t draws = (count + 1) / 2;
    for (size_t i = 0; i < draws; ++i) words[i] = rng.NextUint64();
    internal::StandardNormalFromWords(words, out + done, count);
  }
}

}  // namespace deepaqp::nn
