// Tests for CPU pinning: policy parsing (a removed or unknown value fails
// loudly on the flag and falls back to off on the env var), placement
// planning, pinning degradation, and a pool pinned to the process's real
// CPUs.

#include <atomic>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/flags.h"
#include "util/thread_pool.h"
#include "util/topology.h"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace deepaqp::util {
namespace {

TEST(PinPolicyTest, ParseAndName) {
  PinPolicy policy = PinPolicy::kCompact;
  ASSERT_TRUE(ParsePinPolicy("off", &policy).ok());
  EXPECT_EQ(policy, PinPolicy::kOff);
  ASSERT_TRUE(ParsePinPolicy("compact", &policy).ok());
  EXPECT_EQ(policy, PinPolicy::kCompact);
  EXPECT_STREQ(PinPolicyName(PinPolicy::kOff), "off");
  EXPECT_STREQ(PinPolicyName(PinPolicy::kCompact), "compact");

  // "scatter" by name: scripts written for the removed policy must fail
  // loudly, not pin differently.
  for (const char* bad : {"bogus", "scatter"}) {
    policy = PinPolicy::kCompact;
    const Status st = ParsePinPolicy(bad, &policy);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(st.message().find("(off|compact)"), std::string::npos)
        << st.ToString();
    EXPECT_EQ(policy, PinPolicy::kCompact) << "untouched on '" << bad << "'";
  }
}

TEST(PinPolicyTest, ApplyPinFlag) {
  const PinPolicy saved = ActivePinPolicy();
  SetPinPolicy(PinPolicy::kOff);

  // Flags skips argv[0] (the program name), like main() argv.
  const char* args[] = {"test", "--pin", "compact"};
  Flags flags(3, const_cast<char**>(args));
  ASSERT_TRUE(ApplyPinFlag(flags).ok());
  EXPECT_EQ(ActivePinPolicy(), PinPolicy::kCompact);

  for (const char* bad_value : {"sideways", "scatter"}) {
    const char* bad_args[] = {"test", "--pin", bad_value};
    Flags bad(3, const_cast<char**>(bad_args));
    const Status st = ApplyPinFlag(bad);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << bad_value;
    EXPECT_NE(st.message().find("(off|compact)"), std::string::npos)
        << st.ToString();
    EXPECT_EQ(ActivePinPolicy(), PinPolicy::kCompact);  // unchanged on error
  }

  Flags none(0, nullptr);
  ASSERT_TRUE(ApplyPinFlag(none).ok());  // absent flag: no change
  EXPECT_EQ(ActivePinPolicy(), PinPolicy::kCompact);

  SetPinPolicy(saved);
}

// The env var is read once per process, so the check runs in a re-executed
// child ("threadsafe" death-test style) whose policy slot starts fresh.
TEST(PinPolicyDeathTest, UnknownEnvValueWarnsAndKeepsOff) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const char* prev = std::getenv("DEEPAQP_PIN");
  const std::optional<std::string> saved =
      prev == nullptr ? std::nullopt : std::optional<std::string>(prev);
  ASSERT_EQ(setenv("DEEPAQP_PIN", "scatter", 1), 0);
  EXPECT_EXIT(std::exit(ActivePinPolicy() == PinPolicy::kOff ? 0 : 1),
              testing::ExitedWithCode(0),
              "DEEPAQP_PIN='scatter' not recognized \\(off\\|compact\\); "
              "keeping 'off'");
  if (saved.has_value()) {
    setenv("DEEPAQP_PIN", saved->c_str(), 1);
  } else {
    unsetenv("DEEPAQP_PIN");
  }
}

TEST(PlanPlacementTest, OffLeavesLanesUnpinned) {
  EXPECT_EQ(PlanPlacement({0, 1, 2, 3}, PinPolicy::kOff, 4),
            (std::vector<int>{-1, -1, -1, -1}));
}

TEST(PlanPlacementTest, CompactWrapsPastTheLastCpu) {
  EXPECT_EQ(PlanPlacement({0, 1, 2, 3}, PinPolicy::kCompact, 6),
            (std::vector<int>{0, 1, 2, 3, 0, 1}));
  // The plan follows the given list, gaps included (a restricted cpuset).
  EXPECT_EQ(PlanPlacement({2, 5}, PinPolicy::kCompact, 3),
            (std::vector<int>{2, 5, 2}));
}

TEST(PlanPlacementTest, NoCpusLeavesLanesUnpinned) {
  EXPECT_EQ(PlanPlacement({}, PinPolicy::kCompact, 2),
            (std::vector<int>{-1, -1}));
  EXPECT_TRUE(PlanPlacement({0}, PinPolicy::kCompact, 0).empty());
}

TEST(PinThreadTest, OutOfRangeCpuDegradesGracefully) {
  std::thread t([] {});
  EXPECT_FALSE(PinNativeThread(t.native_handle(), -1));
  EXPECT_FALSE(PinNativeThread(t.native_handle(), 1 << 20));
  t.join();
}

#if defined(__linux__)
TEST(PinThreadTest, PinsOneThreadToOneAllowedCpu) {
  const std::vector<int> allowed = AllowedCpus();
  ASSERT_FALSE(allowed.empty());
  // Pinning to a CPU we are already allowed on must succeed outside of
  // pathological seccomp sandboxes; it narrows only the pinned thread.
  bool pinned = false;
  std::vector<int> seen;
  std::thread t([&] {
    pinned = PinNativeThread(pthread_self(), allowed.back());
    seen = AllowedCpus();
  });
  t.join();
  if (pinned) {
    EXPECT_EQ(seen, (std::vector<int>{allowed.back()}));
  }
  EXPECT_EQ(AllowedCpus(), allowed);
}
#endif

TEST(PinnedPoolTest, PinsOnlyUnderCompactAndRunsEveryIndexOnce) {
  const PinPolicy saved = ActivePinPolicy();
  for (PinPolicy policy : {PinPolicy::kOff, PinPolicy::kCompact}) {
    SetPinPolicy(policy);
    ThreadPool pool(4);
    SCOPED_TRACE(PinPolicyName(policy));
    if (policy == PinPolicy::kOff) {
      EXPECT_EQ(pool.pinned_workers(), 0);
    }
    EXPECT_LE(pool.pinned_workers(), 3);

    constexpr size_t kN = 10000;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(0, kN, [&hits](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i;
    }
  }
  SetPinPolicy(saved);
}

}  // namespace
}  // namespace deepaqp::util
