#include "util/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "util/flags.h"
#include "util/logging.h"

namespace deepaqp::util {

namespace {

/// Set while a thread is executing a pool task; nested ParallelFor calls on
/// such a thread run inline instead of re-entering the queue.
thread_local bool tls_in_pool_task = false;

/// Dense shard slot of the lane running on this thread (set by workers at
/// spawn from the placement plan; 0 everywhere else). Only a scheduling
/// preference — never part of any computed value.
thread_local int tls_lane_shard = 0;

int ClampParallelism(int parallelism) {
  if (parallelism >= 1) return parallelism;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool::ThreadPool(int parallelism)
    : parallelism_(parallelism < 1 ? 1 : parallelism) {
  const PinPolicy policy = ActivePinPolicy();
  lane_shard_.assign(static_cast<size_t>(parallelism_), 0);
  if (policy != PinPolicy::kOff) {
    const CpuTopology& topo = Topology();
    placement_ = PlanPlacement(topo, policy, parallelism_);
    // Compress the node assignments of the lanes actually present into
    // dense shard slots (a compact plan smaller than one node covers a
    // single shard even on a multi-node machine).
    std::vector<int> node_to_shard;
    for (size_t lane = 0; lane < placement_.size(); ++lane) {
      const int node = placement_[lane].node;
      int shard = -1;
      for (size_t s = 0; s < node_to_shard.size(); ++s) {
        if (node_to_shard[s] == node) shard = static_cast<int>(s);
      }
      if (shard < 0) {
        shard = static_cast<int>(node_to_shard.size());
        node_to_shard.push_back(node);
        shard_weight_.push_back(0);
      }
      lane_shard_[lane] = shard;
      ++shard_weight_[static_cast<size_t>(shard)];
    }
    shard_count_ = static_cast<int>(shard_weight_.size());
  }
  if (shard_weight_.empty()) shard_weight_.assign(1, parallelism_);

  workers_.reserve(static_cast<size_t>(parallelism_ - 1));
  for (int i = 0; i < parallelism_ - 1; ++i) {
    const size_t lane = static_cast<size_t>(i) + 1;
    workers_.emplace_back([this, lane] { WorkerLoop(lane); });
    if (!placement_.empty() && placement_[lane].cpu >= 0 &&
        PinNativeThread(workers_.back().native_handle(),
                        placement_[lane].cpu)) {
      ++pinned_workers_;
    }
  }
  if (policy != PinPolicy::kOff) {
    DEEPAQP_LOG(Info) << "thread pool: " << parallelism_ << " lanes, pin="
                      << PinPolicyName(policy) << ", topology "
                      << Topology().ToString() << ", pinned "
                      << pinned_workers_ << "/" << (parallelism_ - 1)
                      << " workers, " << shard_count_ << " shard(s)";
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

void ThreadPool::WorkerLoop(size_t lane) {
  tls_in_pool_task = true;
  tls_lane_shard = lane_shard_[lane];
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

/// Shared state of one (possibly sharded) parallel-for region: one atomic
/// cursor per shard plus the completion/error bookkeeping. The plain
/// ParallelFor is the one-shard special case.
struct ForState {
  struct Shard {
    std::atomic<size_t> next{0};
    size_t end = 0;
  };
  // Fixed-capacity shard array (machines with more NUMA nodes fold into the
  // last shard); avoids a vector of atomics.
  static constexpr size_t kMaxShards = 16;
  Shard shards[kMaxShards];
  size_t num_shards = 1;
  const std::function<void(size_t)>* body = nullptr;
  std::mutex mu;
  std::condition_variable done_cv;
  int pending_helpers = 0;   // guarded by mu
  std::exception_ptr error;  // guarded by mu

  /// Claims indices until every shard is dry, preferring `home` and then
  /// scanning the other shards in cyclic order. On a body exception the
  /// first error is kept and all cursors fast-forward so other lanes stop.
  void Drain(size_t home) {
    for (size_t offset = 0; offset < num_shards; ++offset) {
      Shard& s = shards[(home + offset) % num_shards];
      for (;;) {
        const size_t i = s.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= s.end) break;
        try {
          (*body)(i);
        } catch (...) {
          {
            std::lock_guard<std::mutex> lock(mu);
            if (!error) error = std::current_exception();
          }
          for (size_t d = 0; d < num_shards; ++d) {
            shards[d].next.store(shards[d].end, std::memory_order_relaxed);
          }
          return;
        }
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
  state->shards[0].next.store(begin, std::memory_order_relaxed);
  state->shards[0].end = end;
  state->num_shards = 1;
  state->body = &body;

  const size_t helpers = std::min<size_t>(workers_.size(), range - 1);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->pending_helpers = static_cast<int>(helpers);
  }
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state] {
      state->Drain(static_cast<size_t>(tls_lane_shard) % state->num_shards);
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->pending_helpers == 0) state->done_cv.notify_all();
    });
  }

  // The caller participates as the last lane; flag it as in-task so nested
  // parallel regions inside body() run inline here too.
  tls_in_pool_task = true;
  state->Drain(0);
  tls_in_pool_task = false;
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->pending_helpers == 0; });
  if (state->error) std::rethrow_exception(state->error);
}

void ThreadPool::ParallelForSharded(size_t begin, size_t end,
                                    const std::function<void(size_t)>& body) {
  if (begin >= end) return;
  const size_t range = end - begin;
  const size_t shards = std::min<size_t>(
      std::min<size_t>(static_cast<size_t>(shard_count_),
                       ForState::kMaxShards),
      range);
  // Sharding only pays when the lanes actually span several nodes; with one
  // shard (placement off, single-node machine, compact plan inside one
  // node) this IS ParallelFor, scheduling included.
  if (shards <= 1 || workers_.empty() || tls_in_pool_task) {
    ParallelFor(begin, end, body);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->num_shards = shards;
  state->body = &body;
  // Contiguous per-shard subranges, sized by each shard's lane count so a
  // lopsided plan (e.g. 3 lanes on node0, 1 on node1) gets matching index
  // shares. Pure function of (range, plan) — never of runtime scheduling.
  size_t total_weight = 0;
  for (size_t s = 0; s < shards; ++s) {
    total_weight += static_cast<size_t>(shard_weight_[s]);
  }
  // Fold the weight of shards beyond kMaxShards (if any) into the last one.
  for (size_t s = shards; s < shard_weight_.size(); ++s) {
    total_weight += static_cast<size_t>(shard_weight_[s]);
  }
  size_t cum = 0;
  size_t shard_begin = begin;
  for (size_t s = 0; s < shards; ++s) {
    cum += static_cast<size_t>(shard_weight_[s]);
    if (s + 1 == shards) cum = total_weight;
    const size_t shard_end = begin + (range * cum) / total_weight;
    state->shards[s].next.store(shard_begin, std::memory_order_relaxed);
    state->shards[s].end = shard_end;
    shard_begin = shard_end;
  }

  const size_t helpers = std::min<size_t>(workers_.size(), range - 1);
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->pending_helpers = static_cast<int>(helpers);
  }
  for (size_t h = 0; h < helpers; ++h) {
    Submit([state] {
      // Each worker prefers the shard of the node it is pinned to.
      state->Drain(static_cast<size_t>(tls_lane_shard) % state->num_shards);
      std::lock_guard<std::mutex> lock(state->mu);
      if (--state->pending_helpers == 0) state->done_cv.notify_all();
    });
  }

  tls_in_pool_task = true;
  state->Drain(static_cast<size_t>(lane_shard_[0]) % shards);
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

void ParallelForSharded(size_t begin, size_t end,
                        const std::function<void(size_t)>& body) {
  GlobalThreadPool().ParallelForSharded(begin, end, body);
}

}  // namespace deepaqp::util
