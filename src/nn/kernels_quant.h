#ifndef DEEPAQP_NN_KERNELS_QUANT_H_
#define DEEPAQP_NN_KERNELS_QUANT_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "nn/kernels.h"
#include "nn/matrix.h"
#include "util/status.h"

namespace deepaqp::util {
class Flags;
}  // namespace deepaqp::util

namespace deepaqp::nn {

class ScratchArena;
class Sequential;

/// Inference-only weight quantization mode for the decoder hot path.
///
/// * kOff: the canonical fp32 path — bit-identical to a binary without this
///   subsystem. The fp32 weights always stay canonical: snapshots serialize
///   fp32, training runs fp32, and quantized panels are derived views built
///   at Prepare/load time.
/// * kFp16: weights stored once as IEEE half floats in packed kNr-column
///   panels; the kernel widens each half back to fp32 (exact) and runs the
///   usual fp32 FMA micro-kernel, so the only error is the one-time weight
///   rounding (<= 2^-11 relative per weight).
/// * kInt8: per-output-channel symmetric int8 weights (scale_j =
///   max_k |W[k,j]| / 127) with per-row dynamic activation quantization
///   (a_scale_r = max_k |x[r,k]| / 127). Accumulation is exact int32
///   arithmetic, so the scalar oracle and the AVX2 maddubs kernel produce
///   bit-identical outputs, and the only float work is the fused
///   dequantize+bias+activation epilogue.
enum class QuantMode { kOff, kFp16, kInt8 };

/// Active quantization mode. Initialized once from the DEEPAQP_QUANT
/// environment variable ("off", "fp16", or "int8"; unset means off).
/// Unrecognized values warn to stderr and keep off; a recognized quantized
/// mode whose kernel self-check fails also warns and keeps off — the env
/// path never hard-fails (binaries that take --quant get a hard error via
/// ApplyQuantFlag instead). Note quantized execution additionally requires
/// the model to have been prepared (see VaeNet::PrepareQuantizedDecoder);
/// an unprepared model under a quantized mode keeps running fp32.
QuantMode ActiveQuantMode();

/// True when the vectorized kernel for `mode` is usable in this process:
/// the binary carries the quant intrinsics TU *and* the running CPU reports
/// AVX2+FMA+F16C (one TU carries both kernels, so both modes share the gate
/// — util::CpuInfo, maskable with DEEPAQP_CPU_DISABLE). When false the
/// scalar reference path runs instead; both quantized modes work on every
/// CPU.
bool QuantSimdAvailable(QuantMode mode);

/// Overrides the active quantization mode. For a quantized mode this first
/// runs the kernel self-check (scalar oracle vs vectorized kernel on fixed
/// deterministic inputs, plus quantize round-trip bounds) and fails with
/// FailedPrecondition — leaving the active mode unchanged — if any check
/// trips: quantized inference refuses to engage on a machine where its
/// kernels misbehave. Not safe while parallel compute is in flight; set it
/// up front (tests, benches, main()).
[[nodiscard]] util::Status SetQuantMode(QuantMode mode);

/// "off" / "fp16" / "int8".
const char* QuantModeName(QuantMode mode);

/// Parses "off" / "fp16" / "int8". Returns InvalidArgument on anything
/// else; `*mode` is untouched on error.
[[nodiscard]] util::Status ParseQuantMode(std::string_view name,
                                          QuantMode* mode);

/// Reads the `--quant=off|fp16|int8` flag and applies it via SetQuantMode
/// (deepaqp_cli and the bench/tool binaries).
/// Unknown values and a failing kernel self-check return a descriptive
/// error instead of silently falling back.
[[nodiscard]] util::Status ApplyQuantFlag(const util::Flags& flags);

/// IEEE 754 binary16 conversions (software, round-to-nearest-even on
/// narrowing; widening is exact). Exposed for tests; the fp16 kernels use
/// hardware F16C when available, which implements the same rounding.
uint16_t FloatToHalf(float f);
float HalfToFloat(uint16_t h);

/// One Linear layer's weights re-packed for quantized inference. Built at
/// Prepare/load time from the canonical fp32 parameters; never serialized.
struct QuantizedLinear {
  size_t in = 0;   ///< K: input features (weight rows)
  size_t out = 0;  ///< N: output features (weight cols)
  QuantMode mode = QuantMode::kOff;

  /// kInt8: weights in 8-column panels of 4-k-deep byte groups,
  /// weight_i8[(p * ceil(in/4) + g) * 32 + jr * 4 + kk] =
  ///   quant(W[4g + kk, 8p + jr]), zero-padded in both jr and kk — exactly
  /// the operand order _mm256_maddubs_epi16 + _mm256_madd_epi16 reduce.
  AlignedVector<int8_t> weight_i8;
  /// kInt8: per-output-channel scale, scale[j] = max_k |W[k, j]| / 127.
  std::vector<float> scale;

  /// kFp16: halves in kNr-column panels, weight_f16[p * (in * kNr) +
  /// kk * kNr + jr] = half(W[kk, 8p + jr]) — the PR 3 PackB layout.
  AlignedVector<uint16_t> weight_f16;

  /// Dense copy of the fp32 bias (empty when the layer has none).
  std::vector<float> bias;
};

/// Quantizes one Linear (weight `w` is in x out, `bias` is 1 x out or
/// null-shaped). InvalidArgument for kOff or non-finite weights.
[[nodiscard]] util::Status QuantizeLinear(const Matrix& w, const Matrix& bias,
                                          QuantMode mode, QuantizedLinear* q);

/// out = act(dequant(x @ Wq) + bias): quantized replacement for
/// FusedLinearForward. The dequantize+bias+activation epilogue runs fused
/// on each finished row while its accumulators are cache-hot. Dispatches to
/// the vectorized kernel when QuantSimdAvailable(q.mode); the scalar path
/// is bit-identical for kInt8 (exact integer accumulation + one shared
/// epilogue definition) and within the usual 1e-5 FMA-contraction contract
/// for kFp16. Deterministic at every thread count (row blocks are a pure
/// function of the shape; each output element keeps one fixed accumulation
/// order). `out` must not alias `x`.
void QuantizedLinearForward(const Matrix& x, const QuantizedLinear& q,
                            Activation act, float leaky_slope, Matrix* out);

/// A quantized inference plan for a Sequential: the same Linear+activation
/// fusion schedule InferenceForwardInto derives dynamically, with every
/// Linear's weights re-packed. Built once at Prepare time.
struct QuantizedSequential {
  struct Step {
    QuantizedLinear linear;
    Activation act = Activation::kIdentity;  ///< fused follow-up activation
    float leaky_slope = 0.0f;
  };
  QuantMode mode = QuantMode::kOff;
  std::vector<Step> steps;

  bool engaged() const { return mode != QuantMode::kOff; }
};

/// Builds the plan for `seq` under `mode`. Supports stacks of Linear layers
/// with optional directly-following activations (including nested
/// Sequentials, which are flattened) — i.e. every decoder this library
/// builds. Returns Unimplemented for any other layer pattern so callers can
/// fall back to the fp32 path, and InvalidArgument for kOff.
[[nodiscard]] util::Status QuantizeSequential(const Sequential& seq,
                                              QuantMode mode,
                                              QuantizedSequential* plan);

/// Allocation-free forward through a quantized plan: the drop-in
/// counterpart of InferenceForwardInto. `out` must not alias `x`; `arena`
/// must be owned by the calling thread.
void QuantizedInferenceForwardInto(const QuantizedSequential& plan,
                                   const Matrix& x, Matrix* out,
                                   ScratchArena* arena);

}  // namespace deepaqp::nn

#endif  // DEEPAQP_NN_KERNELS_QUANT_H_
