// DEEPAQP_CPU_DISABLE's grammar, tested on the pure mask function so no
// case depends on the read-once environment variable: known names clear
// their feature, blank and padded names are tolerated, and an unknown name
// is returned (the detector warns with it) instead of silently masking
// nothing.

#include "util/cpu_features.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace deepaqp::util {
namespace {

CpuFeatures AllOn() {
  CpuFeatures f;
  f.avx2 = true;
  f.fma = true;
  f.neon = true;
  return f;
}

TEST(CpuDisableMaskTest, KnownNamesClearTheirFeature) {
  CpuFeatures f = AllOn();
  EXPECT_TRUE(ApplyCpuDisableMask("avx2,fma", &f).empty());
  EXPECT_FALSE(f.avx2);
  EXPECT_FALSE(f.fma);
  EXPECT_TRUE(f.neon);

  f = AllOn();
  EXPECT_TRUE(ApplyCpuDisableMask("neon", &f).empty());
  EXPECT_TRUE(f.avx2);
  EXPECT_TRUE(f.fma);
  EXPECT_FALSE(f.neon);
}

TEST(CpuDisableMaskTest, BlankAndPaddedNames) {
  CpuFeatures f = AllOn();
  EXPECT_TRUE(ApplyCpuDisableMask("", &f).empty());
  EXPECT_TRUE(ApplyCpuDisableMask(" , ,", &f).empty());
  EXPECT_TRUE(f.avx2 && f.fma && f.neon);

  EXPECT_TRUE(ApplyCpuDisableMask(" avx2 ,\tfma\n,,", &f).empty());
  EXPECT_FALSE(f.avx2);
  EXPECT_FALSE(f.fma);
  EXPECT_TRUE(f.neon);
}

TEST(CpuDisableMaskTest, UnknownNamesAreReturnedAndMaskNothing) {
  CpuFeatures f = AllOn();
  EXPECT_EQ(ApplyCpuDisableMask("avx, f16c ,avx512f,AVX2", &f),
            (std::vector<std::string>{"avx", "f16c", "avx512f", "AVX2"}));
  EXPECT_TRUE(f.avx2 && f.fma && f.neon);

  EXPECT_EQ(ApplyCpuDisableMask("fma,avx", &f),
            (std::vector<std::string>{"avx"}));
  EXPECT_TRUE(f.avx2);
  EXPECT_FALSE(f.fma);
}

}  // namespace
}  // namespace deepaqp::util
