// Flags fail loudly: a present value that does not parse as the type asked
// for, a passed flag that no code reads, and an argument that is not a flag,
// exit 2 with a message naming it, instead of silently running with the
// default.

#include "util/flags.h"

#include <gtest/gtest.h>

namespace deepaqp::util {
namespace {

template <size_t N>
Flags Parse(const char* (&argv)[N]) {
  return Flags(static_cast<int>(N), const_cast<char**>(argv));
}

TEST(FlagsTest, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--rows=100", "--name", "census",
                        "--verbose"};
  Flags flags = Parse(argv);
  EXPECT_EQ(flags.GetInt("rows", 0), 100);
  EXPECT_EQ(flags.GetString("name", ""), "census");
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, LaterOccurrenceWins) {
  const char* argv[] = {"prog", "--t=1", "--t=2"};
  EXPECT_EQ(Parse(argv).GetInt("t", 0), 2);
}

TEST(FlagsTest, DoubleParsing) {
  const char* argv[] = {"prog", "--frac=0.25", "--neg", "-1.5"};
  Flags flags = Parse(argv);
  EXPECT_EQ(flags.GetDouble("frac", 0.0), 0.25);
  EXPECT_EQ(flags.GetDouble("neg", 0.0), -1.5);
}

TEST(FlagsTest, BoolAcceptsBothSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b", "1", "--c=false",
                        "--d", "no", "--e=0"};
  Flags flags = Parse(argv);
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_TRUE(flags.GetBool("b", false));
  EXPECT_FALSE(flags.GetBool("c", true));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_FALSE(flags.GetBool("e", true));
}

TEST(FlagsTest, MalformedIntExitsNamingTheFlag) {
  // Letter O for zero: before, this silently ran the default row count.
  const char* argv[] = {"prog", "--rows", "5OO"};
  Flags flags = Parse(argv);
  EXPECT_EXIT(flags.GetInt("rows", 10000), testing::ExitedWithCode(2),
              "--rows needs an integer value \\(got '5OO'\\)");
}

TEST(FlagsTest, MalformedDoubleExitsNamingTheFlag) {
  const char* argv[] = {"prog", "--sample_frac=0.0.5"};
  Flags flags = Parse(argv);
  EXPECT_EXIT(flags.GetDouble("sample_frac", 0.01),
              testing::ExitedWithCode(2), "--sample_frac needs a numeric");
}

TEST(FlagsTest, MalformedBoolExitsNamingTheFlag) {
  const char* argv[] = {"prog", "--json=maybe"};
  Flags flags = Parse(argv);
  EXPECT_EXIT(flags.GetBool("json", false), testing::ExitedWithCode(2),
              "--json needs a true\\|false value");
}

TEST(FlagsTest, UnreadFlagsAreRejected) {
  const char* argv[] = {"prog", "--rows", "500", "--rwos", "500",
                        "--threds=2"};
  Flags flags = Parse(argv);
  EXPECT_EQ(flags.GetInt("rows", 0), 500);
  EXPECT_EXIT(flags.RejectUnread(), testing::ExitedWithCode(2),
              "unknown argument\\(s\\): --rwos --threds");
}

TEST(FlagsTest, ArgumentsThatAreNotFlagsAreRejected) {
  // A single dash makes `-rows` and its value stray words, not a flag.
  const char* argv[] = {"prog", "-rows", "5OO", "--out", "a.csv"};
  Flags flags = Parse(argv);
  EXPECT_EQ(flags.GetInt("rows", 10000), 10000);
  EXPECT_EQ(flags.GetString("out", ""), "a.csv");
  EXPECT_EXIT(flags.RejectUnread(), testing::ExitedWithCode(2),
              "unknown argument\\(s\\): -rows 5OO");
}

TEST(FlagsTest, RejectUnreadPassesOnceEveryFlagWasRead) {
  const char* argv[] = {"prog", "--rows=500", "--out", "a.csv", "--quick"};
  Flags flags = Parse(argv);
  EXPECT_EQ(flags.GetInt("rows", 0), 500);
  EXPECT_EQ(flags.GetString("out", ""), "a.csv");
  EXPECT_TRUE(flags.GetBool("quick", false));
  EXPECT_EQ(flags.GetInt("absent", 3), 3);  // reading an absent flag is fine
  flags.RejectUnread();                     // returns: nothing is unread
}

TEST(FlagsTest, BareFlagReadsAsTrue) {
  // Bare before another flag and bare at the end both read as "true".
  const char* argv[] = {"prog", "--json", "--rows", "3", "--quick"};
  Flags flags = Parse(argv);
  EXPECT_TRUE(flags.GetBool("json", false));
  EXPECT_EQ(flags.GetInt("rows", 0), 3);
  EXPECT_TRUE(flags.GetBool("quick", false));
}

TEST(FlagsTest, BareTrailingFlagWhereAValueIsNeededExits) {
  // `--rows` with its value forgotten must not run the default.
  const char* argv[] = {"prog", "--epochs", "2", "--rows"};
  Flags flags = Parse(argv);
  EXPECT_EQ(flags.GetInt("epochs", 0), 2);
  EXPECT_EXIT(flags.GetInt("rows", 10000), testing::ExitedWithCode(2),
              "--rows needs an integer value");
}

}  // namespace
}  // namespace deepaqp::util
