#include "util/thread_pool.h"

#include "util/flags.h"

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace deepaqp::util {
namespace {

TEST(ThreadPoolTest, StartupAndShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains the queue before joining
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPoolTest, SerialPoolRunsTasksInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  int ran = 0;
  pool.Submit([&ran] { ++ran; });
  EXPECT_EQ(ran, 1);  // no workers: Submit executes before returning
}

TEST(ThreadPoolTest, QueuedCountsTasksWaitingForALane) {
  ThreadPool serial(1);
  serial.Submit([] {});
  EXPECT_EQ(serial.queued(), 0u);  // ran inline, never queued

  std::atomic<int> ran{0};
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  {
    ThreadPool pool(2);  // one worker
    pool.Submit([&] {
      started.set_value();
      gate.wait();
      ran.fetch_add(1);
    });
    started.get_future().wait();
    EXPECT_EQ(pool.queued(), 0u);  // the worker took it
    pool.Submit([&] { ran.fetch_add(1); });
    EXPECT_EQ(pool.queued(), 1u);  // waits for the busy lane
    release.set_value();
  }  // destructor drains the queue and joins the worker before the gate dies
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPoolTest, ParallelismBelowOneClampsToOne) {
  ThreadPool pool(-3);
  EXPECT_EQ(pool.num_threads(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.ParallelFor(0, 0, [&](size_t) { ran.fetch_add(1); });
  pool.ParallelFor(5, 5, [&](size_t) { ran.fetch_add(1); });
  pool.ParallelFor(7, 3, [&](size_t) { ran.fetch_add(1); });  // inverted
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, ParallelForSingleIndex) {
  ThreadPool pool(4);
  std::vector<int> hits(1, 0);
  pool.ParallelFor(0, 1, [&](size_t i) { ++hits[i]; });
  EXPECT_EQ(hits[0], 1);
}

TEST(ThreadPoolTest, ParallelForOddRangeCoversEveryIndexOnce) {
  ThreadPool pool(3);
  const size_t n = 1237;  // odd, not a multiple of the lane count
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(10, 10 + n, [&](size_t i) {
    hits[i - 10].fetch_add(1);
  });
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForMoreIndicesThanThreads) {
  ThreadPool pool(8);
  std::vector<double> out(10000, 0.0);
  pool.ParallelFor(0, out.size(), [&](size_t i) {
    out[i] = static_cast<double>(i) * 2.0;
  });
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 9999.0 * 10000.0);
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100,
                       [](size_t i) {
                         if (i == 37) throw std::runtime_error("task 37");
                       }),
      std::runtime_error);
  // The pool survives and stays usable after a throwing region.
  std::atomic<int> ran{0};
  pool.ParallelFor(0, 16, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, ExceptionOnSerialPoolPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(0, 4,
                                [](size_t i) {
                                  if (i == 2) throw std::logic_error("x");
                                }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(0, 8, [&](size_t outer) {
    // Nested region: must complete inline on whichever lane runs it.
    pool.ParallelFor(0, 8, [&](size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SubmitFromInsideTaskIsSafe) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    std::atomic<int> outer_done{0};
    pool.ParallelFor(0, 8, [&](size_t) {
      pool.Submit([&ran] { ran.fetch_add(1); });
      outer_done.fetch_add(1);
    });
    EXPECT_EQ(outer_done.load(), 8);
  }  // destructor drains the nested submissions
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, GlobalPoolResize) {
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalThreads(), 3);
  std::atomic<int> ran{0};
  ParallelFor(0, 10, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 10);
  SetGlobalThreads(0);  // back to hardware concurrency
  EXPECT_GE(GlobalThreads(), 1);
}

TEST(ThreadPoolTest, ThreadsFlagAppliesToGlobalPool) {
  const char* argv[] = {"prog", "--threads=2"};
  Flags flags(2, const_cast<char**>(argv));
  ApplyThreadsFlag(flags);
  EXPECT_EQ(GlobalThreads(), 2);
  SetGlobalThreads(0);
}

}  // namespace
}  // namespace deepaqp::util
