#include "server/scheduler.h"

#include <utility>

#include "util/failpoint.h"

namespace deepaqp::server {

RequestScheduler::RequestScheduler(util::ThreadPool* pool,
                                   size_t max_queue_per_strand)
    : pool_(pool != nullptr ? pool : &util::GlobalThreadPool()),
      max_queue_per_strand_(max_queue_per_strand) {}

RequestScheduler::~RequestScheduler() { WaitIdle(); }

util::Status RequestScheduler::Post(uint64_t key,
                                    std::function<void()> task) {
  return PostImpl(key, std::move(task), /*bounded=*/true);
}

util::Status RequestScheduler::PostInternal(uint64_t key,
                                            std::function<void()> task) {
  return PostImpl(key, std::move(task), /*bounded=*/false);
}

util::Status RequestScheduler::PostImpl(uint64_t key,
                                        std::function<void()> task,
                                        bool bounded) {
  if (util::FailpointTriggered("server/enqueue", key)) {
    return util::FailpointError("server/enqueue");
  }
  bool start_runner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Strand& strand = strands_[key];
    if (bounded && max_queue_per_strand_ != 0 &&
        strand.queue.size() >= max_queue_per_strand_) {
      return util::Status::Unavailable(
          "SERVER_BUSY: session " + std::to_string(key) + " has " +
          std::to_string(strand.queue.size()) +
          " queued requests (bound " +
          std::to_string(max_queue_per_strand_) + "); retry with backoff");
    }
    strand.queue.push_back(std::move(task));
    ++pending_;
    if (!strand.running) {
      strand.running = true;
      ++runners_;
      start_runner = true;
    }
  }
  if (start_runner) {
    pool_->Submit([this, key] { RunStrand(key); });
  }
  return util::Status::OK();
}

void RequestScheduler::RunStrand(uint64_t key) {
  for (;;) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mu_);
      Strand& strand = strands_[key];
      if (strand.queue.empty()) {
        strand.running = false;
        if (--runners_ == 0 && pending_ == 0) idle_cv_.notify_all();
        return;
      }
      task = std::move(strand.queue.front());
      strand.queue.pop_front();
    }
    task();
    bool more = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
      more = !strands_[key].queue.empty();
    }
    // One task per turn while other work waits for a lane: the strand goes
    // to the back of the pool queue, so a busy strand delays another
    // session's query, open or ack by at most one task. With nothing
    // waiting the runner just continues; that is always so on a pool
    // without workers, whose inline Submit would otherwise recurse here.
    if (more && pool_->queued() > 0) {
      pool_->Submit([this, key] { RunStrand(key); });
      return;
    }
  }
}

void RequestScheduler::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0 && runners_ == 0; });
}

size_t RequestScheduler::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

}  // namespace deepaqp::server
