// Vectorized int8 / fp16 kernels over the packed quant panel layouts (see
// kernels_quant_internal.h). Compiled with -mavx2 -mfma -mf16c when the
// toolchain supports them (src/nn/CMakeLists.txt compile test); otherwise
// this TU degrades to unreachable stubs and QuantSimdCompiled() is false.
// Runtime dispatch lives in kernels_quant.cc (QuantSimdAvailable), so this
// code never executes on a CPU without the ISA.

#include "nn/kernels_quant_internal.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/logging.h"

// util/rng.h defines Rng's per-draw methods inline. Seen here, an
// AVX2-compiled COMDAT copy of one could be the copy the linker keeps for
// the whole binary (DESIGN.md Sec. 14), so this TU must not include it.
#ifdef DEEPAQP_UTIL_RNG_H_
#error "util/rng.h must stay out of the explicit-ISA kernel TUs"
#endif

#if defined(__AVX2__) && defined(__FMA__) && defined(__F16C__)
#define DEEPAQP_QUANT_SIMD_ISA_AVX2 1
#include <immintrin.h>
#endif

namespace deepaqp::nn::internal {

bool QuantSimdCompiled() {
#if defined(DEEPAQP_QUANT_SIMD_ISA_AVX2)
  return true;
#else
  return false;
#endif
}

const char* QuantSimdIsa() {
#if defined(DEEPAQP_QUANT_SIMD_ISA_AVX2)
  return "avx2+f16c";
#else
  return "none";
#endif
}

#if defined(DEEPAQP_QUANT_SIMD_ISA_AVX2)

namespace {

/// One (activation group) x (32-byte weight cell) step accumulated into 8
/// i32 column lanes. maddubs wants unsigned x signed operands; with the
/// symmetric +/-127 encoding, |a| * sign(w, a) == a * w exactly and the
/// paired i16 sums stay below 2 * 127 * 127 < 2^15, so no lane ever
/// saturates and the result equals the scalar integer oracle bit for bit.
/// `ua` is abs(a) hoisted by the caller — it only depends on the group, not
/// the panel, so recomputing it per cell would waste a port-01 op.
inline __m256i DotGroup(__m256i acc, __m256i a_bcast, __m256i ua,
                        const int8_t* cell, __m256i ones16) {
  const __m256i w =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cell));
  const __m256i sw = _mm256_sign_epi8(w, a_bcast);
  const __m256i prod16 = _mm256_maddubs_epi16(ua, sw);
  return _mm256_add_epi32(acc, _mm256_madd_epi16(prod16, ones16));
}

/// Row x panel-block kernel: NB panel accumulators live in registers for
/// the whole k walk (NB <= 8 — with ua/a_bcast/ones/w that is 12 of the 16
/// ymm registers), so each weight cell costs one load plus three port-01
/// ops instead of a round trip through memory per group. Integer math:
/// bit-identical to the scalar oracle for any NB decomposition.
template <int NB>
inline void Int8DotBlock(const int8_t* qa, const int8_t* panels,
                         size_t kgroups, int32_t* acc) {
  const size_t pstride = kgroups * kQNr * kQKg;
  const __m256i ones16 = _mm256_set1_epi16(1);
  __m256i accv[NB];
  for (int p = 0; p < NB; ++p) accv[p] = _mm256_setzero_si256();
  for (size_t g = 0; g < kgroups; ++g) {
    int32_t packed;
    std::memcpy(&packed, qa + g * kQKg, sizeof(packed));
    const __m256i a = _mm256_set1_epi32(packed);
    const __m256i ua = _mm256_abs_epi8(a);
    const int8_t* cell = panels + g * (kQNr * kQKg);
    for (int p = 0; p < NB; ++p) {  // NB is a constant: fully unrolled
      accv[p] = DotGroup(accv[p], a, ua, cell + p * pstride, ones16);
    }
  }
  for (int p = 0; p < NB; ++p) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + p * kQNr), accv[p]);
  }
}

}  // namespace

void Int8DotRowSimd(const int8_t* qa, const int8_t* wq, size_t kgroups,
                    size_t n_panels, int32_t* acc) {
  const size_t pstride = kgroups * kQNr * kQKg;
  size_t p = 0;
  for (; p + 8 <= n_panels; p += 8) {
    Int8DotBlock<8>(qa, wq + p * pstride, kgroups, acc + p * kQNr);
  }
  switch (n_panels - p) {
    case 7: Int8DotBlock<7>(qa, wq + p * pstride, kgroups, acc + p * kQNr); break;
    case 6: Int8DotBlock<6>(qa, wq + p * pstride, kgroups, acc + p * kQNr); break;
    case 5: Int8DotBlock<5>(qa, wq + p * pstride, kgroups, acc + p * kQNr); break;
    case 4: Int8DotBlock<4>(qa, wq + p * pstride, kgroups, acc + p * kQNr); break;
    case 3: Int8DotBlock<3>(qa, wq + p * pstride, kgroups, acc + p * kQNr); break;
    case 2: Int8DotBlock<2>(qa, wq + p * pstride, kgroups, acc + p * kQNr); break;
    case 1: Int8DotBlock<1>(qa, wq + p * pstride, kgroups, acc + p * kQNr); break;
    default: break;
  }
}

float QuantizeActRowSimd(const float* x, size_t k, size_t kgroups,
                         int8_t* qa) {
  // amax scan. Max is exact and order-independent, so lane-parallel
  // reduction equals the scalar sequential scan bit for bit.
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFFFFFF));
  __m256 vmax = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= k; i += 8) {
    vmax = _mm256_max_ps(vmax,
                         _mm256_and_ps(absmask, _mm256_loadu_ps(x + i)));
  }
  float amax = 0.0f;
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vmax);
  for (int l = 0; l < 8; ++l) amax = std::max(amax, lanes[l]);
  for (; i < k; ++i) amax = std::max(amax, std::fabs(x[i]));
  if (amax == 0.0f) return 0.0f;

  // Same two expressions as the scalar driver — identical scale / inverse.
  const float a_scale = amax / static_cast<float>(kQMaxAbs);
  const float inv = static_cast<float>(kQMaxAbs) / amax;

  // Convert 32 floats per step: mul, round (cvtps2dq honors the same
  // nearest-even mode lrintf uses), clamp, then narrow 4x8 i32 -> 32 i8.
  // packs* interleave 128-bit lanes, so one final cross-lane permute
  // restores element order. Values are clamped to +/-127 before packing,
  // so the packs saturation never fires.
  const __m256 vinv = _mm256_set1_ps(inv);
  const __m256i lo = _mm256_set1_epi32(-kQMaxAbs);
  const __m256i hi = _mm256_set1_epi32(kQMaxAbs);
  const __m256i lane_fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  i = 0;
  for (; i + 32 <= k; i += 32) {
    __m256i c[4];
    for (int v = 0; v < 4; ++v) {
      const __m256 t =
          _mm256_mul_ps(_mm256_loadu_ps(x + i + 8 * v), vinv);
      c[v] = _mm256_min_epi32(hi, _mm256_max_epi32(lo, _mm256_cvtps_epi32(t)));
    }
    const __m256i p01 = _mm256_packs_epi32(c[0], c[1]);
    const __m256i p23 = _mm256_packs_epi32(c[2], c[3]);
    const __m256i bytes = _mm256_permutevar8x32_epi32(
        _mm256_packs_epi16(p01, p23), lane_fix);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(qa + i), bytes);
  }
  for (; i < k; ++i) {  // scalar tail: the exact code of the scalar driver
    long v = std::lrintf(x[i] * inv);
    v = std::min<long>(kQMaxAbs, std::max<long>(-kQMaxAbs, v));
    qa[i] = static_cast<int8_t>(v);
  }
  for (; i < kgroups * kQKg; ++i) qa[i] = 0;
  return a_scale;
}

bool DequantEpilogueRowSimd(const int32_t* acc, float a_scale,
                            const float* w_scale, const float* bias,
                            Activation act, float leaky_slope, float* out,
                            size_t n) {
  if (act != Activation::kIdentity && act != Activation::kRelu &&
      act != Activation::kLeakyRelu) {
    return false;
  }
  // Mirror of the scalar definition: cvt, mul by (a_scale * s[j]), add
  // bias — deliberately no FMA (the scalar TU is compiled without FMA, so
  // contraction there is impossible and using it here would break the
  // bit-identity contract). Activations use compare+blend shapes that
  // match the scalar branches exactly, including NaN propagation.
  const __m256 as = _mm256_set1_ps(a_scale);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 slope = _mm256_set1_ps(leaky_slope);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    __m256 v = _mm256_cvtepi32_ps(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(acc + j)));
    v = _mm256_mul_ps(v, _mm256_mul_ps(as, _mm256_loadu_ps(w_scale + j)));
    if (bias != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(bias + j));
    if (act == Activation::kRelu) {
      // scalar: if (x <= 0) x = 0  — NaN compares false and passes through
      v = _mm256_blendv_ps(v, zero, _mm256_cmp_ps(v, zero, _CMP_LE_OQ));
    } else if (act == Activation::kLeakyRelu) {
      // scalar: if (x < 0) x *= slope
      v = _mm256_blendv_ps(v, _mm256_mul_ps(v, slope),
                           _mm256_cmp_ps(v, zero, _CMP_LT_OQ));
    }
    _mm256_storeu_ps(out + j, v);
  }
  for (; j < n; ++j) {  // scalar tail: same expressions as the shared def
    float v = static_cast<float>(acc[j]) * (a_scale * w_scale[j]);
    if (bias != nullptr) v += bias[j];
    if (act == Activation::kRelu) {
      if (v <= 0.0f) v = 0.0f;
    } else if (act == Activation::kLeakyRelu) {
      if (v < 0.0f) v *= leaky_slope;
    }
    out[j] = v;
  }
  return true;
}

/// 4x8 fp16 micro-tile: same register shape and ascending-k order as the
/// fp32 MicroKernelSimd; the only extra work per k step is one VCVTPH2PS
/// widening the packed half row (exact conversion, so the math differs from
/// the scalar oracle only by FMA contraction).
void Fp16MicroKernelSimd(const float* a_panel, const uint16_t* b_panel,
                         size_t kc, float* acc) {
  __m256 c0 = _mm256_setzero_ps();
  __m256 c1 = _mm256_setzero_ps();
  __m256 c2 = _mm256_setzero_ps();
  __m256 c3 = _mm256_setzero_ps();
  for (size_t kk = 0; kk < kc; ++kk) {
    const __m256 bv = _mm256_cvtph_ps(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b_panel + kk * kNr)));
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

void Fp16MicroKernelSimdPaired(const float* a_panel, const uint16_t* b0,
                               const uint16_t* b1, size_t kc, float* acc0,
                               float* acc1) {
  __m256 c00 = _mm256_setzero_ps();
  __m256 c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps();
  __m256 c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps();
  __m256 c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps();
  __m256 c31 = _mm256_setzero_ps();
  for (size_t kk = 0; kk < kc; ++kk) {
    const __m256 bv0 = _mm256_cvtph_ps(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b0 + kk * kNr)));
    const __m256 bv1 = _mm256_cvtph_ps(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(b1 + kk * kNr)));
    const float* arow = a_panel + kk * kMr;
    const __m256 a0 = _mm256_broadcast_ss(arow + 0);
    const __m256 a1 = _mm256_broadcast_ss(arow + 1);
    const __m256 a2 = _mm256_broadcast_ss(arow + 2);
    const __m256 a3 = _mm256_broadcast_ss(arow + 3);
    c00 = _mm256_fmadd_ps(a0, bv0, c00);
    c01 = _mm256_fmadd_ps(a0, bv1, c01);
    c10 = _mm256_fmadd_ps(a1, bv0, c10);
    c11 = _mm256_fmadd_ps(a1, bv1, c11);
    c20 = _mm256_fmadd_ps(a2, bv0, c20);
    c21 = _mm256_fmadd_ps(a2, bv1, c21);
    c30 = _mm256_fmadd_ps(a3, bv0, c30);
    c31 = _mm256_fmadd_ps(a3, bv1, c31);
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

#else  // !DEEPAQP_QUANT_SIMD_ISA_AVX2

// Unreachable stubs: QuantSimdAvailable() is false when the TU was built
// without the ISA, so dispatch can never route here.

void Int8DotRowSimd(const int8_t* qa, const int8_t* wq, size_t kgroups,
                    size_t n_panels, int32_t* acc) {
  (void)qa;
  (void)wq;
  (void)kgroups;
  (void)n_panels;
  (void)acc;
  DEEPAQP_CHECK(false);
}

float QuantizeActRowSimd(const float* x, size_t k, size_t kgroups,
                         int8_t* qa) {
  (void)x;
  (void)k;
  (void)kgroups;
  (void)qa;
  DEEPAQP_CHECK(false);
  return 0.0f;
}

bool DequantEpilogueRowSimd(const int32_t* acc, float a_scale,
                            const float* w_scale, const float* bias,
                            Activation act, float leaky_slope, float* out,
                            size_t n) {
  (void)acc;
  (void)a_scale;
  (void)w_scale;
  (void)bias;
  (void)act;
  (void)leaky_slope;
  (void)out;
  (void)n;
  DEEPAQP_CHECK(false);
  return false;
}

void Fp16MicroKernelSimd(const float* a_panel, const uint16_t* b_panel,
                         size_t kc, float* acc) {
  (void)a_panel;
  (void)b_panel;
  (void)kc;
  (void)acc;
  DEEPAQP_CHECK(false);
}

void Fp16MicroKernelSimdPaired(const float* a_panel, const uint16_t* b0,
                               const uint16_t* b1, size_t kc, float* acc0,
                               float* acc1) {
  (void)a_panel;
  (void)b0;
  (void)b1;
  (void)kc;
  (void)acc0;
  (void)acc1;
  DEEPAQP_CHECK(false);
}

#endif  // DEEPAQP_QUANT_SIMD_ISA_AVX2

}  // namespace deepaqp::nn::internal
