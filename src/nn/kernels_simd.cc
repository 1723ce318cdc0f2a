// The explicitly vectorized GEMM backend (GemmKernelKind::kSimd): the same
// packed-panel blocked algorithm as kernels.cc, with the micro-kernel, the
// sigmoid and the softplus written in intrinsics instead of relying on the
// auto-vectorizer. This is the only translation unit in the project built
// with explicit vector ISA flags (-mavx2 -mfma on x86; NEON is baseline on
// aarch64) — see src/nn/CMakeLists.txt. Nothing here may be called unless
// nn::SimdKernelAvailable() returned true, which includes a runtime cpuid /
// getauxval check (util::CpuInfo), so a binary built on an AVX2 host
// degrades to the portable blocked kernel on a lesser machine instead of
// dying on SIGILL the way the old -march=native build could.
//
// Numerics contract: identical packing, identical block decomposition, and
// identical per-element k accumulation order as BlockedGemmDriver — the
// only difference is FMA contraction inside each k step, so results stay
// within the kernel layer's 1e-5 reference-relative bound and are
// bit-identical at every --threads setting (the layout is a pure function
// of the shape). The fused epilogue calls the same scalar
// internal::ApplyEpilogueRow definition the blocked driver uses, which
// keeps FusedLinearForward bit-identical to the unfused pipeline under
// this backend too.

#include "nn/kernels_internal.h"

#include <cstring>
#include <vector>

#include "nn/aligned_buffer.h"
#include "util/logging.h"
#include "util/thread_pool.h"

// util/rng.h defines Rng's per-draw methods inline. Seen here, an
// AVX2-compiled COMDAT copy of one could be the copy the linker keeps for
// the whole binary (DESIGN.md Sec. 14), so this TU must not include it.
#ifdef DEEPAQP_UTIL_RNG_H_
#error "util/rng.h must stay out of the explicit-ISA kernel TUs"
#endif

#if defined(__AVX2__) && defined(__FMA__)
#define DEEPAQP_SIMD_ISA_AVX2 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define DEEPAQP_SIMD_ISA_NEON 1
#include <arm_neon.h>
#endif

namespace deepaqp::nn::internal {

bool SimdBackendCompiled() {
#if defined(DEEPAQP_SIMD_ISA_AVX2) || defined(DEEPAQP_SIMD_ISA_NEON)
  return true;
#else
  return false;
#endif
}

const char* SimdBackendIsa() {
#if defined(DEEPAQP_SIMD_ISA_AVX2)
  return "avx2+fma";
#elif defined(DEEPAQP_SIMD_ISA_NEON)
  return "neon";
#else
  return "none";
#endif
}

#if defined(DEEPAQP_SIMD_ISA_AVX2) || defined(DEEPAQP_SIMD_ISA_NEON)

namespace {

#if defined(DEEPAQP_SIMD_ISA_AVX2)

/// 4x8 micro-tile: each C row is one ymm accumulator; every k step is one
/// B-panel load, four A broadcasts, four FMAs — ascending kk, so each
/// element keeps one fixed accumulation order.
inline void MicroKernelSimd(const float* __restrict__ a_panel,
                            const float* __restrict__ b_panel, size_t kc,
                            float* __restrict__ acc) {
  __m256 c0 = _mm256_setzero_ps();
  __m256 c1 = _mm256_setzero_ps();
  __m256 c2 = _mm256_setzero_ps();
  __m256 c3 = _mm256_setzero_ps();
  for (size_t kk = 0; kk < kc; ++kk) {
    const __m256 bv = _mm256_loadu_ps(b_panel + kk * kNr);
    const float* arow = a_panel + kk * kMr;
    c0 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 0), bv, c0);
    c1 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 1), bv, c1);
    c2 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 2), bv, c2);
    c3 = _mm256_fmadd_ps(_mm256_broadcast_ss(arow + 3), bv, c3);
  }
  _mm256_storeu_ps(acc + 0 * kNr, c0);
  _mm256_storeu_ps(acc + 1 * kNr, c1);
  _mm256_storeu_ps(acc + 2 * kNr, c2);
  _mm256_storeu_ps(acc + 3 * kNr, c3);
}

/// Paired variant: two adjacent B panels per pass (a 4x16 register block,
/// eight independent FMA chains). Four chains alone cannot cover the FMA
/// latency-x-throughput product on AVX2 cores, so the single-panel kernel
/// runs at roughly half peak; the pair keeps both FMA ports busy. Each
/// panel's accumulation order is unchanged — pairing only interleaves
/// independent elements.
inline void MicroKernelSimdPair(const float* __restrict__ a_panel,
                                const float* __restrict__ b_panel0,
                                const float* __restrict__ b_panel1, size_t kc,
                                float* __restrict__ acc0,
                                float* __restrict__ acc1) {
  __m256 c00 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps();
  __m256 c01 = _mm256_setzero_ps();
  __m256 c11 = _mm256_setzero_ps();
  __m256 c21 = _mm256_setzero_ps();
  __m256 c31 = _mm256_setzero_ps();
  for (size_t kk = 0; kk < kc; ++kk) {
    const __m256 bv0 = _mm256_loadu_ps(b_panel0 + kk * kNr);
    const __m256 bv1 = _mm256_loadu_ps(b_panel1 + kk * kNr);
    const float* arow = a_panel + kk * kMr;
    __m256 av = _mm256_broadcast_ss(arow + 0);
    c00 = _mm256_fmadd_ps(av, bv0, c00);
    c01 = _mm256_fmadd_ps(av, bv1, c01);
    av = _mm256_broadcast_ss(arow + 1);
    c10 = _mm256_fmadd_ps(av, bv0, c10);
    c11 = _mm256_fmadd_ps(av, bv1, c11);
    av = _mm256_broadcast_ss(arow + 2);
    c20 = _mm256_fmadd_ps(av, bv0, c20);
    c21 = _mm256_fmadd_ps(av, bv1, c21);
    av = _mm256_broadcast_ss(arow + 3);
    c30 = _mm256_fmadd_ps(av, bv0, c30);
    c31 = _mm256_fmadd_ps(av, bv1, c31);
  }
  _mm256_storeu_ps(acc0 + 0 * kNr, c00);
  _mm256_storeu_ps(acc0 + 1 * kNr, c10);
  _mm256_storeu_ps(acc0 + 2 * kNr, c20);
  _mm256_storeu_ps(acc0 + 3 * kNr, c30);
  _mm256_storeu_ps(acc1 + 0 * kNr, c01);
  _mm256_storeu_ps(acc1 + 1 * kNr, c11);
  _mm256_storeu_ps(acc1 + 2 * kNr, c21);
  _mm256_storeu_ps(acc1 + 3 * kNr, c31);
}

/// Full-width tile store: C row (+)= acc row as one vector op.
inline void StoreRowFull(const float* __restrict__ accr,
                         float* __restrict__ crow, bool store) {
  const __m256 v = _mm256_loadu_ps(accr);
  if (store) {
    _mm256_storeu_ps(crow, v);
  } else {
    _mm256_storeu_ps(crow, _mm256_add_ps(_mm256_loadu_ps(crow), v));
  }
}

#else  // DEEPAQP_SIMD_ISA_NEON

/// 4x8 micro-tile on NEON: each C row is two q-register accumulators
/// (eight independent FMA chains total), one fused multiply-accumulate per
/// lane per k step, ascending kk.
inline void MicroKernelSimd(const float* __restrict__ a_panel,
                            const float* __restrict__ b_panel, size_t kc,
                            float* __restrict__ acc) {
  float32x4_t c0l = vdupq_n_f32(0.0f), c0h = vdupq_n_f32(0.0f);
  float32x4_t c1l = vdupq_n_f32(0.0f), c1h = vdupq_n_f32(0.0f);
  float32x4_t c2l = vdupq_n_f32(0.0f), c2h = vdupq_n_f32(0.0f);
  float32x4_t c3l = vdupq_n_f32(0.0f), c3h = vdupq_n_f32(0.0f);
  for (size_t kk = 0; kk < kc; ++kk) {
    const float32x4_t bl = vld1q_f32(b_panel + kk * kNr);
    const float32x4_t bh = vld1q_f32(b_panel + kk * kNr + 4);
    const float32x4_t a4 = vld1q_f32(a_panel + kk * kMr);
    c0l = vfmaq_laneq_f32(c0l, bl, a4, 0);
    c0h = vfmaq_laneq_f32(c0h, bh, a4, 0);
    c1l = vfmaq_laneq_f32(c1l, bl, a4, 1);
    c1h = vfmaq_laneq_f32(c1h, bh, a4, 1);
    c2l = vfmaq_laneq_f32(c2l, bl, a4, 2);
    c2h = vfmaq_laneq_f32(c2h, bh, a4, 2);
    c3l = vfmaq_laneq_f32(c3l, bl, a4, 3);
    c3h = vfmaq_laneq_f32(c3h, bh, a4, 3);
  }
  vst1q_f32(acc + 0 * kNr, c0l);
  vst1q_f32(acc + 0 * kNr + 4, c0h);
  vst1q_f32(acc + 1 * kNr, c1l);
  vst1q_f32(acc + 1 * kNr + 4, c1h);
  vst1q_f32(acc + 2 * kNr, c2l);
  vst1q_f32(acc + 2 * kNr + 4, c2h);
  vst1q_f32(acc + 3 * kNr, c3l);
  vst1q_f32(acc + 3 * kNr + 4, c3h);
}

inline void StoreRowFull(const float* __restrict__ accr,
                         float* __restrict__ crow, bool store) {
  const float32x4_t vl = vld1q_f32(accr);
  const float32x4_t vh = vld1q_f32(accr + 4);
  if (store) {
    vst1q_f32(crow, vl);
    vst1q_f32(crow + 4, vh);
  } else {
    vst1q_f32(crow, vaddq_f32(vld1q_f32(crow), vl));
    vst1q_f32(crow + 4, vaddq_f32(vld1q_f32(crow + 4), vh));
  }
}

#endif  // ISA select

/// Spills one micro-tile accumulator block into C, honoring the ragged
/// edges (the packed panels are zero-padded, so acc always holds a full
/// kMr x kNr block; only the store respects m_eff / n_eff).
inline void StoreTile(const float* __restrict__ acc, size_t m_eff,
                      size_t n_eff, bool store, float* c, size_t ldc,
                      size_t r0, size_t j0) {
  for (size_t ir = 0; ir < m_eff; ++ir) {
    float* crow = c + (r0 + ir) * ldc + j0;
    const float* accr = acc + ir * kNr;
    if (n_eff == kNr) {
      StoreRowFull(accr, crow, store);
    } else if (store) {
      for (size_t jr = 0; jr < n_eff; ++jr) crow[jr] = accr[jr];
    } else {
      for (size_t jr = 0; jr < n_eff; ++jr) crow[jr] += accr[jr];
    }
  }
}

AlignedVector<float>& TlsBPack() {
  thread_local AlignedVector<float> buf;
  return buf;
}

}  // namespace

void SimdGemmDriver(const View& a, const View& b, size_t m, size_t k,
                    size_t n, float alpha, bool overwrite, const Epilogue* epi,
                    float* c, size_t ldc) {
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

  // Identical packing and sharing discipline as the blocked driver: one
  // packed copy of op(B) in the caller's thread-local buffer, read-only to
  // the helper lanes while the caller blocks in ParallelFor.
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
        size_t p = 0;
#if defined(DEEPAQP_SIMD_ISA_AVX2)
        for (; p + 1 < n_panels; p += 2) {
          alignas(32) float acc0[kMr * kNr];
          alignas(32) float acc1[kMr * kNr];
          MicroKernelSimdPair(a_panel, b_block + p * (kc * kNr),
                              b_block + (p + 1) * (kc * kNr), kc, acc0,
                              acc1);
          const size_t j0 = p * kNr;
          StoreTile(acc0, m_eff, std::min(kNr, n - j0), store, c, ldc, r0,
                    j0);
          StoreTile(acc1, m_eff, std::min(kNr, n - j0 - kNr), store, c, ldc,
                    r0, j0 + kNr);
        }
#endif
        for (; p < n_panels; ++p) {
          alignas(32) float acc[kMr * kNr];
          MicroKernelSimd(a_panel, b_block + p * (kc * kNr), kc, acc);
          const size_t j0 = p * kNr;
          StoreTile(acc, m_eff, std::min(kNr, n - j0), store, c, ldc, r0,
                    j0);
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

namespace {

/// Scalar twin of the vector FastExp below, for the < one-vector tail.
/// Same polynomial as internal::FastExp in kernels.cc.
inline float ScalarFastExp(float x) {
  float z = x * 1.44269504088896341f;  // log2(e)
  z = z < -126.0f ? -126.0f : z;
  z = z > 126.0f ? 126.0f : z;
  const float shifted = z + 12582912.0f;  // 1.5 * 2^23
  int32_t ibits;
  std::memcpy(&ibits, &shifted, sizeof(ibits));
  const int32_t nexp = ibits - 0x4B400000;
  const float f = z - (shifted - 12582912.0f);  // f in [-0.5, 0.5]
  const float u = f * 0.693147180559945286f;    // ln 2
  float p = 1.0f / 720.0f;
  p = p * u + 1.0f / 120.0f;
  p = p * u + 1.0f / 24.0f;
  p = p * u + 1.0f / 6.0f;
  p = p * u + 0.5f;
  p = p * u + 1.0f;
  p = p * u + 1.0f;
  const int32_t sbits = (nexp + 127) << 23;
  float scale;
  std::memcpy(&scale, &sbits, sizeof(scale));
  return p * scale;
}

#if defined(DEEPAQP_SIMD_ISA_AVX2)

/// Eight-lane FastExp: the same 2^(x * log2 e) split + degree-6 polynomial,
/// with the Horner steps contracted by FMA. max_ps and min_ps return their
/// second operand when either is NaN, so z goes second: a NaN input stays
/// NaN, as in the scalar FastExp.
inline __m256 FastExpAvx2(__m256 x) {
  const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
  __m256 z = _mm256_mul_ps(x, log2e);
  z = _mm256_max_ps(_mm256_set1_ps(-126.0f), z);
  z = _mm256_min_ps(_mm256_set1_ps(126.0f), z);
  const __m256 magic = _mm256_set1_ps(12582912.0f);  // 1.5 * 2^23
  const __m256 shifted = _mm256_add_ps(z, magic);
  const __m256i nexp = _mm256_sub_epi32(_mm256_castps_si256(shifted),
                                        _mm256_set1_epi32(0x4B400000));
  const __m256 f = _mm256_sub_ps(z, _mm256_sub_ps(shifted, magic));
  const __m256 u = _mm256_mul_ps(f, _mm256_set1_ps(0.693147180559945286f));
  __m256 p = _mm256_set1_ps(1.0f / 720.0f);
  p = _mm256_fmadd_ps(p, u, _mm256_set1_ps(1.0f / 120.0f));
  p = _mm256_fmadd_ps(p, u, _mm256_set1_ps(1.0f / 24.0f));
  p = _mm256_fmadd_ps(p, u, _mm256_set1_ps(1.0f / 6.0f));
  p = _mm256_fmadd_ps(p, u, _mm256_set1_ps(0.5f));
  p = _mm256_fmadd_ps(p, u, _mm256_set1_ps(1.0f));
  p = _mm256_fmadd_ps(p, u, _mm256_set1_ps(1.0f));
  const __m256i sbits = _mm256_slli_epi32(
      _mm256_add_epi32(nexp, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(sbits));
}

#endif

}  // namespace

void SimdSigmoid(const float* x, float* out, size_t n) {
  size_t i = 0;
#if defined(DEEPAQP_SIMD_ISA_AVX2)
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 signbit = _mm256_set1_ps(-0.0f);
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 e = FastExpAvx2(_mm256_xor_ps(v, signbit));  // exp(-x)
    _mm256_storeu_ps(out + i, _mm256_div_ps(one, _mm256_add_ps(one, e)));
  }
#endif
  // NEON builds take the scalar FastExp loop whole (the compiler
  // vectorizes it against baseline NEON); AVX2 builds use it only for the
  // sub-vector tail.
  for (; i < n; ++i) out[i] = 1.0f / (1.0f + ScalarFastExp(-x[i]));
}

void SimdSoftplus(const float* x, float* out, size_t n) {
  size_t i = 0;
#if defined(DEEPAQP_SIMD_ISA_AVX2)
  const __m256 zero = _mm256_setzero_ps();
  const __m256 two = _mm256_set1_ps(2.0f);
  const __m256 signbit = _mm256_set1_ps(-0.0f);
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 e = FastExpAvx2(_mm256_or_ps(v, signbit));  // exp(-|x|)
    const __m256 s = _mm256_div_ps(e, _mm256_add_ps(two, e));
    const __m256 s2 = _mm256_mul_ps(s, s);
    __m256 p = _mm256_set1_ps(1.0f / 11.0f);
    for (float c : {1.0f / 9.0f, 1.0f / 7.0f, 1.0f / 5.0f, 1.0f / 3.0f, 1.0f}) {
      p = _mm256_fmadd_ps(p, s2, _mm256_set1_ps(c));
    }
    // max_ps returns its second operand when either is NaN, so x goes
    // second: a NaN input stays NaN.
    const __m256 relu = _mm256_max_ps(zero, v);
    _mm256_storeu_ps(out + i,
                     _mm256_fmadd_ps(_mm256_add_ps(s, s), p, relu));
  }
#endif
  for (; i < n; ++i) out[i] = Softplus(x[i]);
}

#else  // no vector ISA compiled in

// Stubs keep the link whole on toolchains without the flags. They are
// unreachable: SimdKernelAvailable() is false when SimdBackendCompiled()
// is, and the dispatch never routes here.
void SimdGemmDriver(const View&, const View&, size_t, size_t, size_t, float,
                    bool, const Epilogue*, float*, size_t) {
  DEEPAQP_CHECK(false);
}

void SimdSigmoid(const float*, float*, size_t) { DEEPAQP_CHECK(false); }
void SimdSoftplus(const float*, float*, size_t) { DEEPAQP_CHECK(false); }

#endif

}  // namespace deepaqp::nn::internal
