#ifndef DEEPAQP_SERVER_SCHEDULER_H_
#define DEEPAQP_SERVER_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>

#include "util/status.h"
#include "util/thread_pool.h"

namespace deepaqp::server {

/// Multiplexes per-session work over the shared util::ThreadPool. Each key
/// (session id) is a strand: its tasks run one at a time, in submission
/// order, but different keys run concurrently on whatever pool threads are
/// free. Sessions therefore need no internal locking — every touch of a
/// Session object is posted to its strand.
///
/// A strand never occupies a pool thread while idle, nor for more than one
/// task while other work waits for a lane: after each task the runner
/// re-submits itself at the tail of the pool queue if its strand has more
/// work and the pool has queued tasks, and exits when its queue is empty
/// (the next Post re-submits). So a strand with a long chain of tasks (a
/// refining stream) delays another strand's task by at most one task. With
/// no queued work (always so on a pool without workers, whose Submit runs
/// inline) the runner keeps draining its queue. Tasks must not block on
/// other strands' work (the underlying pool requirement).
class RequestScheduler {
 public:
  /// Uses `pool` for execution; with nullptr the process-global pool is
  /// used, so `--threads` sizes the server like every other parallel path.
  /// `max_queue_per_strand` bounds how many tasks one strand may hold
  /// queued (admission control for a session that floods requests faster
  /// than it executes them); 0 = unbounded.
  explicit RequestScheduler(util::ThreadPool* pool = nullptr,
                            size_t max_queue_per_strand = 0);

  /// Waits for all in-flight and queued tasks, then returns. Outstanding
  /// work is completed, never dropped.
  ~RequestScheduler();

  RequestScheduler(const RequestScheduler&) = delete;
  RequestScheduler& operator=(const RequestScheduler&) = delete;

  /// Enqueues `task` on `key`'s strand. Instrumented with the
  /// `server/enqueue` fail point (arg = key): an injected fault rejects
  /// this one task with a Status and leaves the strand intact. When the
  /// strand already holds max_queue_per_strand queued tasks the post is
  /// shed with Unavailable (SERVER_BUSY) instead of queueing unboundedly.
  util::Status Post(uint64_t key, std::function<void()> task);

  /// Like Post but exempt from the per-strand queue bound: internal
  /// progress work (session steps, drain probes) must never be shed by
  /// admission control, or a backlogged session could not drain itself.
  util::Status PostInternal(uint64_t key, std::function<void()> task);

  /// Blocks until no task is queued or running anywhere.
  void WaitIdle();

  /// Tasks currently queued or running (observability).
  size_t pending() const;

 private:
  struct Strand {
    std::deque<std::function<void()>> queue;
    bool running = false;
  };

  void RunStrand(uint64_t key);
  util::Status PostImpl(uint64_t key, std::function<void()> task,
                        bool bounded);

  util::ThreadPool* pool_;
  size_t max_queue_per_strand_;
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  std::map<uint64_t, Strand> strands_;
  size_t pending_ = 0;
  /// Strand runner tasks currently on the pool. WaitIdle waits for these
  /// too: a runner that just drained its queue still touches this object on
  /// its way out, so "no pending tasks" alone would let the destructor
  /// free state under a live runner.
  size_t runners_ = 0;
};

}  // namespace deepaqp::server

#endif  // DEEPAQP_SERVER_SCHEDULER_H_
