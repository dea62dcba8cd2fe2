// Minimal work-stealing-free thread pool with a parallel_for helper.
//
// The experiment harness sweeps thousands of simulator configurations and
// trains many candidate networks; those tasks are embarrassingly parallel,
// so a fixed pool with a shared queue is sufficient and keeps the code simple
// (C++ Core Guidelines CP: prefer higher-level concurrency constructs over
// raw thread management scattered through the code).
//
// Concurrency contract (audited under ThreadSanitizer; see
// docs/STATIC_ANALYSIS.md):
//  - All queue/stop state is guarded by one mutex. A submit()ted task's
//    completion is observed through its future; a parallel_for chunk's
//    through its loop's done count, guarded by the loop's own mutex, which
//    orders fn's side effects before parallel_for returns.
//  - parallel_for's caller takes part in its own loop: it enqueues
//    min(workers, chunks) - 1 helpers, then claims chunks itself until none
//    is left, and then waits only for chunks other threads have already
//    claimed. A claimed chunk is running on some thread, never sitting in
//    the queue, so the wait always ends; by induction the same holds for a
//    loop nested in a chunk, at any depth. A nested loop on a fully busy
//    pool therefore degrades to its caller running every chunk, and helpers
//    dequeued after their loop drained find nothing to claim and exit,
//    touching only the loop's shared state (pool.helpers_idle counts them).
//  - The global pool size honours the DSML_THREADS environment variable,
//    which CI uses to force real concurrency on single-core runners.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace dsml {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers; 0 means the DSML_THREADS
  /// environment variable if set, else hardware_concurrency (minimum 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task; returns a future for its completion. Throws StateError
  /// if the pool is already shutting down.
  template <typename F>
  std::future<void> submit(F&& fn) {
    auto task = std::make_shared<std::packaged_task<void()>>(
        std::forward<F>(fn));
    std::future<void> fut = task->get_future();
    // Observability: tasks are counted and their enqueue→dequeue latency
    // feeds the pool.queue_wait_us histogram (see common/metrics.hpp). Both
    // hooks are relaxed atomics; submissions are coarse (one task per worker
    // per parallel_for), so the extra clock read is noise.
    note_task_submitted();
    const auto enqueued = std::chrono::steady_clock::now();
    {
      std::lock_guard lock(mutex_);
      if (stopping_) {
        throw StateError("ThreadPool::submit: pool is shutting down");
      }
      queue_.emplace([task, enqueued]() mutable {
        note_queue_wait(enqueued);
        (*task)();
      });
    }
    cv_.notify_one();
    return fut;
  }

  /// Shared process-wide pool (lazily created; sized per the constructor's
  /// `threads == 0` rule).
  static ThreadPool& global();

 private:
  void worker_loop();

  /// Metrics hooks (defined in the .cpp so the header stays light).
  static void note_task_submitted() noexcept;
  static void note_queue_wait(
      std::chrono::steady_clock::time_point enqueued) noexcept;

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs fn(i) for i in [begin, end) across `pool`, blocking until all
/// iterations complete. Iterations are chunked to amortise dispatch; the
/// calling thread runs chunks alongside the pool's workers, whether or not
/// it is itself a pool worker (nested loops run in parallel too).
/// Exceptions thrown by fn propagate to the caller (first one wins; the
/// other chunks still run). Runs inline when the pool has a single worker
/// or the range forms a single chunk.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 0);

/// parallel_for over the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 0);

/// Runs fn(chunk_begin, chunk_end) over [begin, end) split into chunks of at
/// most `chunk` elements. The batched prediction paths use this so each call
/// amortises per-chunk setup (workspace acquisition, layer scratch) over many
/// rows instead of paying it per element. Same scheduling as parallel_for.
void parallel_for_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn);

/// parallel_for_chunks over the global pool.
void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace dsml
