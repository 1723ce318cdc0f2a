#ifndef DEEPAQP_NN_KERNELS_INTERNAL_H_
#define DEEPAQP_NN_KERNELS_INTERNAL_H_

// Shared contract between the portable blocked kernel (kernels.cc) and the
// explicitly vectorized backend (kernels_simd.cc). Both translation units
// consume the same packed-panel layout and the same driver signature, so
// the only thing the SIMD TU adds is a micro-kernel (and a vectorized
// sigmoid and softplus) emitted with AVX2/FMA (or NEON) instructions.
//
// Everything declared here is defined in kernels.cc with the
// project-baseline ISA. Keeping the shared helpers out-of-line (not inline
// in this header) is deliberate: an inline function compiled once with
// -mavx2 and once without would be merged by the linker into a single
// arbitrary copy, which could smuggle AVX2 instructions into the generic
// code path on a non-AVX2 machine. Out-of-line definitions have exactly one
// home TU and one ISA.

#include <cstddef>
#include <cstdint>

#include "nn/kernels.h"

namespace deepaqp::nn::internal {

/// Stride view of a logical (possibly transposed) operand: element (r, c)
/// lives at base[r * rs + c * cs]. A transpose is just a stride swap, so
/// packing and the micro-kernels never branch on transpose flags.
struct View {
  const float* base;
  size_t rs;
  size_t cs;
};

/// Micro-tile: kMr C rows x kNr C columns accumulate in registers. 4 x 8
/// fits both targets: GCC promotes it to an all-register block in the
/// portable kernel, and kNr = 8 floats is exactly one AVX2 ymm vector (two
/// NEON q registers), so the same packed panels feed the intrinsics
/// micro-kernel unchanged.
inline constexpr size_t kMr = 4;
inline constexpr size_t kNr = 8;
/// K-dimension cache block: one packed A panel (kMr x kKc) is 4 KB and one
/// packed B panel (kKc x kNr) is 8 KB, so a micro-kernel's working set sits
/// comfortably in L1.
inline constexpr size_t kKc = 256;
/// Rows of C per parallel task. Shape-derived only (never thread-derived):
/// batch 256 yields 8 tasks regardless of pool size, which keeps the block
/// layout — and therefore the floats — identical at every thread count.
inline constexpr size_t kMc = 32;
/// Same parallelism cutoff the row-parallel reference kernel uses: below
/// this flop count the task handoff costs more than the loop.
inline constexpr size_t kParallelFlopCutoff = 32768;

inline constexpr size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

/// Packs op(B)[k0:k0+kc, 0:n] into kNr-wide column panels:
/// out[p * (kc * kNr) + kk * kNr + jr] = op(B)(k0 + kk, p * kNr + jr),
/// zero-padded in jr for the ragged last panel.
void PackB(const View& b, size_t k0, size_t kc, size_t n, float* out);

/// Packs op(A)[i0:i0+mc, k0:k0+kc] into kMr-tall row panels with alpha
/// folded in: out[(mp * kc + kk) * kMr + ir] = alpha * op(A)(i0 + mp*kMr +
/// ir, k0 + kk), zero-padded in ir for the ragged last panel.
void PackA(const View& a, size_t i0, size_t mc, size_t k0, size_t kc,
           float alpha, float* out);

/// Optional fused tail applied to finished C rows while they are cache-hot.
struct Epilogue {
  const float* bias = nullptr;  // 1 x n, nullable
  Activation act = Activation::kIdentity;
  float leaky_slope = 0.0f;
};

/// bias add + ApplyActivation over one C row. Scalar arithmetic identical
/// to the standalone layer loops — both drivers call this one definition,
/// which is what keeps FusedLinearForward bit-identical to the unfused
/// GEMM + AddRowBroadcast + ApplyActivation pipeline under every backend.
void ApplyEpilogueRow(const Epilogue& e, float* row, size_t n);

/// C[0:m, 0:n] (+)= alpha * op(A) @ op(B) with the portable blocked kernel.
/// `overwrite` makes the first K block store instead of accumulate; `epi`,
/// if non-null, runs on each row block after its accumulation completes.
/// Bit-identical at every thread count (block layout is a pure function of
/// the shape; each C element keeps one fixed k accumulation order).
void BlockedGemmDriver(const View& a, const View& b, size_t m, size_t k,
                       size_t n, float alpha, bool overwrite,
                       const Epilogue* epi, float* c, size_t ldc);

/// StandardNormalVec's transform: out[0:n] from words[0:ceil(n/2)], the
/// pair of word i in out[2i] (cosine) and out[2i + 1] (sine). Exposed so
/// tests can feed chosen words.
void StandardNormalFromWords(const uint64_t* words, float* out, size_t n);

// --- SIMD backend (kernels_simd.cc) ----------------------------------------

/// True when kernels_simd.cc was built with an explicit vector ISA (AVX2+FMA
/// on x86, NEON on aarch64). False on toolchains without the flags — then
/// the simd kernel kind is never selectable and the stubs below are
/// unreachable.
bool SimdBackendCompiled();

/// "avx2+fma", "neon", or "none" — which ISA the SIMD TU was built for.
const char* SimdBackendIsa();

/// Same contract as BlockedGemmDriver, hand-vectorized micro-kernel.
/// Results differ from the blocked driver only through FMA contraction
/// inside one k step (same summation order), so the reference-relative
/// error bound is the same 1e-5 contract. Must only be called when
/// SimdKernelAvailable() (runtime CPU check included) is true.
void SimdGemmDriver(const View& a, const View& b, size_t m, size_t k,
                    size_t n, float alpha, bool overwrite, const Epilogue* epi,
                    float* c, size_t ldc);

/// out[i] = sigmoid(x[i]) via the vectorized exp2 polynomial (the same
/// formula kernels.cc's FastExp evaluates; AVX2 lanes contract it with
/// FMA). |error| < 1e-5 absolute on the sigmoid, pure function of input.
void SimdSigmoid(const float* x, float* out, size_t n);

/// Scalar softplus by SoftplusVec's series (the next term is below 1e-7):
/// the blocked loop inlines it, SimdSoftplus runs it on the vector tail.
float Softplus(float x);

/// out[i] = softplus(x[i]) by Softplus's series on the vectorized exp
/// (AVX2 lanes contract it with FMA). Same availability contract as
/// SimdSigmoid.
void SimdSoftplus(const float* x, float* out, size_t n);

}  // namespace deepaqp::nn::internal

#endif  // DEEPAQP_NN_KERNELS_INTERNAL_H_
