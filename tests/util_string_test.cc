#include "util/string_util.h"

#include <gtest/gtest.h>

namespace deepaqp::util {
namespace {

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, JoinInvertsSplit) {
  EXPECT_EQ(Join({"x", "y", "z"}, ","), "x,y,z");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, "--"), "solo");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-ws"), "no-ws");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("2.5", &v));
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(ParseDouble("-1e3", &v));
  EXPECT_EQ(v, -1000.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
}

TEST(StringUtilTest, ParseDoubleRejectsOutOfRange) {
  // strtod reports ERANGE for values outside the double range; accepting
  // them would silently turn "1e999" into +inf downstream (flag parsing,
  // CSV ingest). Underflow-to-zero of tiny denormals stays accepted —
  // ERANGE only rejects when no finite representation exists at all.
  double v = 0;
  EXPECT_FALSE(ParseDouble("1e999", &v));
  EXPECT_FALSE(ParseDouble("-1e999", &v));
  EXPECT_TRUE(ParseDouble("1e308", &v));
  EXPECT_EQ(v, 1e308);
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_FALSE(ParseInt64("4.2", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringUtilTest, ParseInt64RejectsOutOfRange) {
  // strtoll clamps to LLONG_MIN/MAX and sets ERANGE; before the errno
  // check, "9223372036854775808" parsed "successfully" as LLONG_MAX.
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_FALSE(ParseInt64("9223372036854775808", &v));
  EXPECT_TRUE(ParseInt64("-9223372036854775808", &v));
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_FALSE(ParseInt64("-9223372036854775809", &v));
}

}  // namespace
}  // namespace deepaqp::util
