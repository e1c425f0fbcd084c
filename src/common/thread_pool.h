// Fixed-size worker pool used to parallelise per-client local updates,
// coalition utility evaluation, and ALS row solves.
//
// A pool of size 0 or 1 executes tasks inline on the calling thread, which
// keeps unit tests deterministic.
#ifndef COMFEDSV_COMMON_THREAD_POOL_H_
#define COMFEDSV_COMMON_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace comfedsv {

/// A minimal fixed-size thread pool with a blocking Wait() barrier.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers. 0 or 1 means inline
  /// execution (no worker threads are spawned).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Tasks must not throw; use ParallelFor for work that
  /// may fail.
  void Submit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed. Must not be called
  /// from one of this pool's own workers (CHECK-fails instead of
  /// deadlocking).
  void Wait();

  /// Number of worker threads (0 for inline pools).
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs `fn(i)` for i in [0, n), distributing across the pool, and waits.
  /// The calling thread takes indices too, alongside at most
  /// num_threads() - 1 workers. With an inline pool, or when called from one of this pool's own
  /// workers (a nested region), this is a plain loop on the calling
  /// thread. If any invocation throws, remaining indices are abandoned as
  /// soon as possible and the first captured exception is rethrown on the
  /// calling thread after all in-flight work has drained.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  /// Runs `fn(begin, end)` over a fixed partition of [0, n) into
  /// contiguous blocks of `block_size` indices (the last block may be
  /// shorter) and waits. The partition depends only on n and block_size —
  /// never on the thread count — so per-block scratch reuse and
  /// per-block accumulation stay deterministic. Exceptions propagate as
  /// in ParallelFor.
  void ParallelForBlocked(int n, int block_size,
                          const std::function<void(int, int)>& fn);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;  // immutable after construction
  Mutex mu_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  CondVar work_available_;
  CondVar all_done_;
  int in_flight_ GUARDED_BY(mu_) = 0;  // queued + running tasks
  bool shutting_down_ GUARDED_BY(mu_) = false;
};

}  // namespace comfedsv

#endif  // COMFEDSV_COMMON_THREAD_POOL_H_
