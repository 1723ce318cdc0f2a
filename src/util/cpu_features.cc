#include "util/cpu_features.h"

#include <cstdio>
#include <cstdlib>

#include "util/string_util.h"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace deepaqp::util {

namespace {

CpuFeatures Detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  // GCC/Clang resolve these through cpuid at first use; no asm needed.
  __builtin_cpu_init();
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
#elif defined(__aarch64__)
#if defined(__linux__)
  f.neon = (getauxval(AT_HWCAP) & HWCAP_ASIMD) != 0;
#else
  // Advanced SIMD is architecturally mandatory on AArch64.
  f.neon = true;
#endif
#endif
  const char* disable = std::getenv("DEEPAQP_CPU_DISABLE");
  if (disable != nullptr) {
    for (const std::string& token : ApplyCpuDisableMask(disable, &f)) {
      std::fprintf(stderr,
                   "DEEPAQP_CPU_DISABLE token '%s' not recognized "
                   "(avx2|fma|neon); ignoring it\n",
                   token.c_str());
    }
  }
  return f;
}

const CpuFeatures* g_test_override = nullptr;

}  // namespace

std::vector<std::string> ApplyCpuDisableMask(std::string_view mask,
                                             CpuFeatures* features) {
  std::vector<std::string> unknown;
  for (const std::string& name : Split(mask, ',')) {
    std::string token = Trim(name);
    if (token == "avx2") {
      features->avx2 = false;
    } else if (token == "fma") {
      features->fma = false;
    } else if (token == "neon") {
      features->neon = false;
    } else if (!token.empty()) {
      unknown.push_back(std::move(token));
    }
  }
  return unknown;
}

const CpuFeatures& CpuInfo() {
  static const CpuFeatures detected = Detect();
  return g_test_override != nullptr ? *g_test_override : detected;
}

void SetCpuFeaturesForTest(const CpuFeatures* features) {
  g_test_override = features;
}

std::string CpuFeaturesToString(const CpuFeatures& features) {
  std::string out;
  const auto add = [&out](const char* name) {
    if (!out.empty()) out += ' ';
    out += name;
  };
  if (features.avx2) add("avx2");
  if (features.fma) add("fma");
  if (features.neon) add("neon");
  return out;
}

}  // namespace deepaqp::util
