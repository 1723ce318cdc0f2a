#ifndef DEEPAQP_NN_KERNELS_H_
#define DEEPAQP_NN_KERNELS_H_

#include <cstddef>

#include "nn/matrix.h"

namespace deepaqp::util {
class Rng;  // util/rng.h; kept out of the explicit-ISA kernel TUs
}  // namespace deepaqp::util

namespace deepaqp::nn {

/// Which GEMM implementation backs nn::Gemm / nn::ShardedGemmTN and the
/// fused forward kernels.
///
/// * kSimd: hand-vectorized micro-kernel (AVX2+FMA intrinsics on x86, NEON
///   on aarch64) over the same packed-panel layout as kBlocked. Differs
///   from kBlocked only by FMA contraction inside each k step; bit-identical
///   at every `--threads` setting and within the same 1e-5
///   reference-relative contract (tests/nn_simd_backend_test.cc).
/// * kBlocked: cache-blocked, panel-packed, register-tiled kernel compiled
///   for the portable baseline ISA (auto-vectorized). Results differ from
///   ReferenceGemm only by floating-point summation grouping (<= ~1e-5
///   relative on realistic shapes) and are bit-identical at every
///   `--threads` setting for a fixed shape, because the block layout is a
///   pure function of the shape and each output element keeps one fixed
///   accumulation order.
enum class GemmKernelKind { kBlocked, kSimd };

/// Active kernel. Chosen from the running CPU at first use (util::CpuInfo
/// — never compile flags, so one binary runs everywhere): kSimd when
/// SimdKernelAvailable(), else kBlocked. SetGemmKernel overrides it.
GemmKernelKind ActiveGemmKernel();

/// True when the SIMD backend is usable in this process: the binary carries
/// the intrinsics TU *and* the running CPU reports the ISA (util::CpuInfo,
/// maskable with DEEPAQP_CPU_DISABLE for fallback testing).
bool SimdKernelAvailable();

/// Overrides the active kernel (tests and backend-sweeping benches).
/// CHECK-fails when `kind` is kSimd and SimdKernelAvailable() is false, so
/// nothing can dispatch into an ISA the CPU lacks. Not safe while parallel
/// compute is in flight; set it up front.
void SetGemmKernel(GemmKernelKind kind);

/// "blocked" / "simd".
const char* GemmKernelKindName(GemmKernelKind kind);

/// The seed repository's triple-loop GEMM, byte-for-byte semantics:
/// C = alpha * op(A) @ op(B) + beta * C, row-parallel over large outputs.
/// The correctness reference for the blocked and simd kernels: tests and
/// bench_kernels call it directly; no dispatch reaches it.
void ReferenceGemm(const Matrix& a, bool trans_a, const Matrix& b,
                   bool trans_b, float alpha, float beta, Matrix* c);

/// Activations the fused forward kernel can apply in its epilogue. The
/// epilogue arithmetic is identical to the standalone layer loops
/// (std::exp / std::tanh based), so fusing never changes values, only
/// the number of passes over memory.
enum class Activation { kIdentity, kRelu, kLeakyRelu, kSigmoid, kTanh };

/// out = act(x @ W + bias): one fused pass under the blocked and simd
/// kernels (bias add and activation run on each row block while it is
/// cache-hot, no intermediate matrix is materialized). `bias` must be
/// 1 x W.cols, may be null-shaped (0 x 0) to skip the bias add. For every
/// kernel kind the fused result is bit-identical to the unfused Gemm +
/// AddRowBroadcast + ApplyActivation pipeline under that same kind. `out`
/// must not alias `x`, `w`, or `bias`.
void FusedLinearForward(const Matrix& x, const Matrix& w, const Matrix& bias,
                        Activation act, float leaky_slope, Matrix* out);

/// In-place activation over a raw buffer (exactly the arithmetic the layer
/// classes use).
void ApplyActivation(Activation act, float leaky_slope, float* data,
                     size_t n);

/// out[i] = sigmoid(x[i]). Under the blocked kernel this uses a
/// polynomial exp2-based expf (pure float arithmetic, auto-vectorizable,
/// |error| < 1e-5 absolute on the sigmoid); under kSimd the same polynomial
/// is evaluated with explicit vector intrinsics. Either way the result is a
/// pure function of the input and the kernel kind — never of the thread
/// count.
void SigmoidVec(const float* x, float* out, size_t n);

/// out[i] = softplus(x[i]) = log(1 + e^x), evaluated as
/// max(x, 0) + log1p(e) with e = exp(-|x|) in (0, 1]: e comes from the same
/// polynomial expf as SigmoidVec, and log1p(e) = 2 atanh(s) with
/// s = e / (2 + e) <= 1/3, summed as the odd series through s^11 / 11.
/// |error| < 5e-7 absolute over [-120, 120] under both kernels. NaN stays
/// NaN and +inf stays +inf; -inf gives 2^-126, the clamped exp's floor. A
/// pure function of the input and the kernel kind.
void SoftplusVec(const float* x, float* out, size_t n);

/// bits[i] = Bernoulli(sigmoid(logits[i])) as 0.0f/1.0f. The sigmoid pass
/// is vectorized (SigmoidVec); the Bernoulli draws consume exactly one
/// rng.NextDouble() per element in index order and give the same bits as
/// `rng.Bernoulli(p) ? 1.0f : 0.0f`, without its branch. A NaN or -inf
/// logit gives 0 and +inf gives 1. Replaces the per-element exp+draw loop
/// on the sampling hot path.
void SigmoidBernoulliVec(const float* logits, size_t n, util::Rng& rng,
                         float* bits);

/// out[0:n] ~ N(0, 1) by a float Box–Muller that takes one
/// rng.NextUint64() per pair of outputs (ceil(n/2) words; for odd n the
/// last word's sine is dropped). Two 24-bit uniforms come from each word,
/// so |z| <= sqrt(48 ln 2) = 5.77, which cuts about 8e-9 of the mass per
/// value. One portable implementation, auto-vectorized at the baseline ISA:
/// the values depend only on the rng state, never on the kernel kind or
/// the CPU. A different stream from rng.NextGaussian(), which takes two
/// NextDouble() per pair.
void StandardNormalVec(util::Rng& rng, float* out, size_t n);

}  // namespace deepaqp::nn

#endif  // DEEPAQP_NN_KERNELS_H_
