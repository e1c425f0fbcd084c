#include "common/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>

#include "common/check.h"

namespace comfedsv {
namespace {

// The pool whose WorkerLoop runs on this thread, or null off-pool. A
// ParallelFor issued from one of a pool's own workers runs inline: its
// barrier would otherwise wait on the caller's own in-flight task.
thread_local const ThreadPool* current_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  COMFEDSV_CHECK_GE(num_threads, 0);
  if (num_threads <= 1) return;  // inline mode
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  if (workers_.empty()) return;
  // A worker waiting on its own pool counts itself in in_flight_.
  COMFEDSV_CHECK(current_worker_pool != this);
  MutexLock lock(mu_);
  while (in_flight_ != 0) all_done_.wait(mu_);
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  if (workers_.empty() || n == 1 || current_worker_pool == this) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  // Dynamic chunking: workers pull the next index from a shared counter so
  // uneven task costs (e.g. coalition sizes) balance automatically.
  struct SharedState {
    std::atomic<int> counter{0};
    std::atomic<bool> failed{false};
    Mutex error_mu;
    std::exception_ptr first_error GUARDED_BY(error_mu);
  };
  auto state = std::make_shared<SharedState>();
  auto shard = [state, n, &fn] {
    for (;;) {
      if (state->failed.load(std::memory_order_relaxed)) break;
      int i = state->counter.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
      } catch (...) {
        MutexLock lock(state->error_mu);
        if (!state->failed.exchange(true)) {
          state->first_error = std::current_exception();
        }
      }
    }
  };
  // The caller runs one of the shards itself: it starts at once, where a
  // worker must first be woken, which short regions feel. While it does,
  // it counts as one of this pool's workers, so a nested region runs
  // inline on it exactly as on a worker.
  int shards = std::min<int>(n, num_threads());
  for (int s = 1; s < shards; ++s) Submit(shard);
  {
    const ThreadPool* saved = current_worker_pool;
    current_worker_pool = this;
    shard();
    current_worker_pool = saved;
  }
  Wait();
  // Wait() is a full barrier, but read the error slot under its lock
  // anyway: the thread-safety analysis can't see the barrier, and the
  // lock is uncontended here.
  std::exception_ptr first_error;
  {
    MutexLock lock(state->error_mu);
    first_error = state->first_error;
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

void ThreadPool::ParallelForBlocked(int n, int block_size,
                                    const std::function<void(int, int)>& fn) {
  COMFEDSV_CHECK_GT(block_size, 0);
  if (n <= 0) return;
  const int num_blocks = (n + block_size - 1) / block_size;
  ParallelFor(num_blocks, [&](int b) {
    const int begin = b * block_size;
    const int end = begin + block_size < n ? begin + block_size : n;
    fn(begin, end);
  });
}

void ThreadPool::WorkerLoop() {
  current_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_.empty()) work_available_.wait(mu_);
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace comfedsv
