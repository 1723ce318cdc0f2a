#ifndef DEEPAQP_UTIL_CPU_FEATURES_H_
#define DEEPAQP_UTIL_CPU_FEATURES_H_

#include <string>
#include <string_view>
#include <vector>

namespace deepaqp::util {

/// The ISA extensions the kernel layer dispatches on. Detected once per
/// process from the running CPU (cpuid on x86, getauxval on aarch64), never
/// from compile flags — a binary built on an AVX2 host must still answer
/// correctly on a machine without AVX2.
struct CpuFeatures {
  bool avx2 = false;     ///< x86: 256-bit integer/float vectors
  bool fma = false;      ///< x86: fused multiply-add (FMA3)
  bool neon = false;     ///< aarch64: Advanced SIMD (baseline on AArch64)
};

/// The detected features of the running CPU, cached after the first call.
/// The environment variable `DEEPAQP_CPU_DISABLE` (comma-separated subset
/// of "avx2,fma,neon", read once) masks features off — the knob CI uses to
/// exercise the no-SIMD fallback path on SIMD hardware. An unknown token
/// warns on stderr, naming it and the accepted set, and masks nothing.
const CpuFeatures& CpuInfo();

/// Clears each feature `mask` names in `*features`. `mask` has the
/// DEEPAQP_CPU_DISABLE grammar: comma-separated names, each trimmed of
/// whitespace, blank names skipped. Returns the names it did not recognize.
std::vector<std::string> ApplyCpuDisableMask(std::string_view mask,
                                             CpuFeatures* features);

/// Overrides CpuInfo() for tests (pass nullptr to restore real detection).
/// The pointed-to struct must outlive the override. Not safe while parallel
/// compute is in flight; set it up front like nn::SetGemmKernel.
void SetCpuFeaturesForTest(const CpuFeatures* features);

/// "avx2 fma" / "neon" / "" — for logs and bench metadata.
std::string CpuFeaturesToString(const CpuFeatures& features);

}  // namespace deepaqp::util

#endif  // DEEPAQP_UTIL_CPU_FEATURES_H_
