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
    const auto [it, inserted] = strands_.try_emplace(key);
    std::deque<std::function<void()>>& queue = it->second;
    if (bounded && max_queue_per_strand_ != 0 &&
        queue.size() >= max_queue_per_strand_) {
      return util::Status::Unavailable(
          "SERVER_BUSY: session " + std::to_string(key) + " has " +
          std::to_string(queue.size()) + " queued requests (bound " +
          std::to_string(max_queue_per_strand_) + "); retry with backoff");
    }
    queue.push_back(std::move(task));
    ++pending_;
    // A new entry is an idle strand: start its runner.
    start_runner = inserted;
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
      const auto it = strands_.find(key);
      if (it->second.empty()) {
        // The runner exits and its strand's entry goes with it, so a
        // closed session leaves nothing behind.
        strands_.erase(it);
        if (strands_.empty() && pending_ == 0) idle_cv_.notify_all();
        return;
      }
      task = std::move(it->second.front());
      it->second.pop_front();
    }
    task();
    bool more = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
      more = !strands_.at(key).empty();
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
  idle_cv_.wait(lock, [this] { return pending_ == 0 && strands_.empty(); });
}

size_t RequestScheduler::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_;
}

size_t RequestScheduler::strands() const {
  std::lock_guard<std::mutex> lock(mu_);
  return strands_.size();
}

}  // namespace deepaqp::server
