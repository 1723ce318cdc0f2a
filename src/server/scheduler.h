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
/// work and the pool has queued tasks, and exits when its queue is empty,
/// dropping the strand's entry (the next Post recreates and re-submits
/// it). So a strand with a long chain of tasks (a refining stream) delays
/// another strand's task by at most one task. With no queued work (always
/// so on a pool without workers, whose Submit runs inline) the runner keeps
/// draining its queue. Tasks must not block on other strands' work (the
/// underlying pool requirement).
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

  /// Strands with a runner on the pool (observability). An idle strand
  /// holds no entry, so this is 0 after WaitIdle when nothing was posted
  /// since: a closed session leaves nothing behind.
  size_t strands() const;

 private:
  void RunStrand(uint64_t key);
  util::Status PostImpl(uint64_t key, std::function<void()> task,
                        bool bounded);

  util::ThreadPool* pool_;
  size_t max_queue_per_strand_;
  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  /// Each strand's queued tasks. A key has an entry exactly while its
  /// runner is on the pool: Post inserts it and starts the runner, and the
  /// runner erases it on the way out when its queue is empty. WaitIdle
  /// waits for the map to empty too, since a runner that just drained its
  /// queue still touches this object, so "no pending tasks" alone would let
  /// the destructor free state under a live runner.
  std::map<uint64_t, std::deque<std::function<void()>>> strands_;
  size_t pending_ = 0;
};

}  // namespace deepaqp::server

#endif  // DEEPAQP_SERVER_SCHEDULER_H_
