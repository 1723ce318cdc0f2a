#ifndef DEEPAQP_NN_KERNELS_QUANT_H_
#define DEEPAQP_NN_KERNELS_QUANT_H_

namespace deepaqp::nn {

/// Decoder weight precision. fp32 is the only one: the paper samples from
/// an fp32 decoder, and reduced-precision modes won no end-to-end workload
/// (DESIGN.md Sec. 15). The name stays for binaries that print it.
enum class QuantMode { kOff };

inline QuantMode ActiveQuantMode() { return QuantMode::kOff; }

inline const char* QuantModeName(QuantMode) { return "off"; }

}  // namespace deepaqp::nn

#endif  // DEEPAQP_NN_KERNELS_QUANT_H_
