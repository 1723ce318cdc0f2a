#ifndef DEEPAQP_UTIL_THREAD_POOL_H_
#define DEEPAQP_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace deepaqp::util {

class Flags;

/// Fixed-size thread pool used by every parallel hot path (training GEMMs,
/// synthetic-sample generation, pairwise distances, per-partition ensemble
/// training).
///
/// Determinism contract: the pool itself never introduces nondeterminism.
/// ParallelFor hands out loop indices dynamically, so *which* thread runs an
/// index varies — callers must make each index's work self-contained:
/// disjoint output slots per index and, where randomness is needed, a child
/// Rng stream derived from (master seed, index) via Rng::ChildStream. Under
/// that discipline results are bit-identical at every thread count,
/// including 1.
///
/// Placement: when util::ActivePinPolicy() is kCompact at construction
/// time, each worker lane is pinned to one CPU of the placement plan
/// (util::PlanPlacement over util::AllowedCpus()). Pinning failures
/// (containers denying sched_setaffinity, non-Linux) degrade silently to
/// unpinned lanes. Placement never changes what an index computes — only
/// which CPU runs it — so both policies stay bit-identical under the
/// contract above.
class ThreadPool {
 public:
  /// `parallelism` counts the calling thread: a pool of parallelism N spawns
  /// N-1 workers and ParallelFor uses the caller as the N-th lane.
  /// Values < 1 are clamped to 1 (fully serial, no worker threads).
  explicit ThreadPool(int parallelism);

  /// Drains all queued tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return parallelism_; }

  /// Number of workers successfully pinned (benches, logs, tests); 0 when
  /// placement is off.
  int pinned_workers() const { return pinned_workers_; }

  /// Enqueues a fire-and-forget task. With parallelism 1 the task runs
  /// inline. Tasks must not block waiting for later-queued tasks.
  void Submit(std::function<void()> task);

  /// Submitted tasks no worker has started yet: work waiting for a lane.
  /// Always 0 with parallelism 1, whose Submit runs tasks inline.
  size_t queued() const;

  /// Runs body(i) for every i in [begin, end) and blocks until all complete.
  /// The calling thread participates. The first exception thrown by any body
  /// is rethrown on the caller (remaining indices are skipped best-effort).
  /// Safe to call from inside a pool task: nested calls run inline serially,
  /// so parallel regions compose without deadlock.
  void ParallelFor(size_t begin, size_t end,
                   const std::function<void(size_t)>& body);

 private:
  void WorkerLoop();

  const int parallelism_;
  int pinned_workers_ = 0;
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The process-wide pool shared by all library parallel regions. Defaults to
/// hardware concurrency; resize with SetGlobalThreads before heavy work.
ThreadPool& GlobalThreadPool();

/// Replaces the global pool with one of the given parallelism (0 or negative
/// means hardware concurrency). Not safe while parallel work is in flight.
/// The new pool replans placement, so this is also how a SetPinPolicy
/// change takes effect.
void SetGlobalThreads(int parallelism);

/// Parallelism of the global pool.
int GlobalThreads();

/// Reads the global `--threads` flag (0 = hardware concurrency) and resizes
/// the global pool accordingly. Call once from main() after parsing flags
/// (and after ApplyPinFlag, so the pool picks the placement policy up).
void ApplyThreadsFlag(const Flags& flags);

/// ParallelFor on the global pool.
void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& body);

}  // namespace deepaqp::util

#endif  // DEEPAQP_UTIL_THREAD_POOL_H_
