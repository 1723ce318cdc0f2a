#include "util/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "util/flags.h"
#include "util/logging.h"
#include "util/topology.h"

namespace deepaqp::util {

namespace {

/// Set while a thread is executing a pool task; nested ParallelFor calls on
/// such a thread run inline instead of re-entering the queue.
thread_local bool tls_in_pool_task = false;

int ClampParallelism(int parallelism) {
  if (parallelism >= 1) return parallelism;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool::ThreadPool(int parallelism)
    : parallelism_(parallelism < 1 ? 1 : parallelism) {
  const PinPolicy policy = ActivePinPolicy();
  const std::vector<int> cpus =
      policy == PinPolicy::kOff ? std::vector<int>{} : AllowedCpus();
  // Lane 0 is the calling thread, which the pool never pins.
  const std::vector<int> plan = PlanPlacement(cpus, policy, parallelism_);
  workers_.reserve(static_cast<size_t>(parallelism_ - 1));
  for (size_t lane = 1; lane < plan.size(); ++lane) {
    workers_.emplace_back([this] { WorkerLoop(); });
    if (plan[lane] >= 0 &&
        PinNativeThread(workers_.back().native_handle(), plan[lane])) {
      ++pinned_workers_;
    }
  }
  if (policy != PinPolicy::kOff) {
    DEEPAQP_LOG(Info) << "thread pool: " << parallelism_ << " lanes, pin="
                      << PinPolicyName(policy) << ", " << cpus.size()
                      << " allowed cpus, pinned " << pinned_workers_ << "/"
                      << (parallelism_ - 1) << " workers";
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  // With no workers (parallelism 1) queued tasks ran inline in Submit, so
  // the queue is already empty here.
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    const bool prev = tls_in_pool_task;
    tls_in_pool_task = true;
    task();
    tls_in_pool_task = prev;
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

size_t ThreadPool::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void ThreadPool::WorkerLoop() {
  tls_in_pool_task = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

namespace {

/// Shared state of one parallel-for region: the atomic index cursor plus
/// the completion/error bookkeeping.
struct ForState {
  std::atomic<size_t> next{0};
  size_t end = 0;
  const std::function<void(size_t)>* body = nullptr;
  std::mutex mu;
  std::condition_variable done_cv;
  int pending_helpers = 0;   // guarded by mu
  std::exception_ptr error;  // guarded by mu

  /// Claims indices until the range is dry. On a body exception the first
  /// error is kept and the cursor fast-forwards so other lanes stop.
  void Drain() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        (*body)(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
        next.store(end, std::memory_order_relaxed);
        return;
      }
    }
  }
};

}  // namespace

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& body) {
  if (begin >= end) return;
  const size_t range = end - begin;
  // Serial fast path: trivial range, no workers, or already inside a pool
  // task (nested region) — run inline with natural exception propagation.
  if (range == 1 || workers_.empty() || tls_in_pool_task) {
    for (size_t i = begin; i < end; ++i) body(i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;
  state->body = &body;

  const size_t helpers = std::min<size_t>(workers_.size(), range - 1);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->pending_helpers = static_cast<int>(helpers);
  }
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state] {
      state->Drain();
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->pending_helpers == 0) state->done_cv.notify_all();
    });
  }

  // The caller participates as the last lane; flag it as in-task so nested
  // parallel regions inside body() run inline here too.
  tls_in_pool_task = true;
  state->Drain();
  tls_in_pool_task = false;
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->pending_helpers == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

namespace {

// Starts empty so a SetGlobalThreads before first use doesn't build (and,
// under a pin policy, spawn + pin) a default pool only to discard it.
// Callers hold GlobalPoolMutex() and fill the slot on first use.
std::unique_ptr<ThreadPool>& GlobalPoolSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

ThreadPool& LockedGlobalPool() {
  std::unique_ptr<ThreadPool>& slot = GlobalPoolSlot();
  if (slot == nullptr) {
    slot = std::make_unique<ThreadPool>(ClampParallelism(0));
  }
  return *slot;
}

std::mutex& GlobalPoolMutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

ThreadPool& GlobalThreadPool() {
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  return LockedGlobalPool();
}

void SetGlobalThreads(int parallelism) {
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  // Reset before constructing: the old pool's workers must exit before the
  // replacement pins new ones to the same CPUs.
  GlobalPoolSlot().reset();
  GlobalPoolSlot() =
      std::make_unique<ThreadPool>(ClampParallelism(parallelism));
}

int GlobalThreads() {
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  return LockedGlobalPool().num_threads();
}

void ApplyThreadsFlag(const Flags& flags) {
  SetGlobalThreads(static_cast<int>(flags.GetInt(kThreadsFlag, 0)));
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t)>& body) {
  GlobalThreadPool().ParallelFor(begin, end, body);
}

}  // namespace deepaqp::util
