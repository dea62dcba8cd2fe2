#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "common/metrics.hpp"

namespace dsml {

namespace {

std::size_t default_thread_count() {
  if (const char* env = std::getenv("DSML_THREADS"); env && *env) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<std::size_t>(parsed);
    }
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::note_task_submitted() noexcept {
  static metrics::Counter& tasks = metrics::counter("pool.tasks");
  tasks.add();
}

void ThreadPool::note_queue_wait(
    std::chrono::steady_clock::time_point enqueued) noexcept {
  static metrics::Histogram& wait = metrics::histogram("pool.queue_wait_us");
  const auto waited = std::chrono::steady_clock::now() - enqueued;
  wait.observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(waited).count()));
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

namespace {

/// One parallel_for loop, shared by its caller and its helpers. Helpers hold
/// it through a shared_ptr, so a helper dequeued after the caller returned
/// still has valid state to look at; it finds no chunk left and exits
/// without touching `fn`, which belongs to the caller's frame.
struct LoopState {
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  std::atomic<std::size_t> next_chunk{0};
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t done_chunks = 0;     // guarded by mutex
  std::exception_ptr first_error;  // guarded by mutex

  /// Claims and runs chunks until none is left; returns how many it ran.
  std::size_t drain() {
    std::size_t ran = 0;
    for (;;) {
      const std::size_t c = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return ran;
      ++ran;
      const std::size_t chunk_begin = begin + c * grain;
      const std::size_t chunk_end = std::min(chunk_begin + grain, end);
      std::exception_ptr error;
      try {
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) (*fn)(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard lock(mutex);
      if (error && !first_error) first_error = error;
      if (++done_chunks == chunks) all_done.notify_all();
    }
  }
};

}  // namespace

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = pool.size();
  if (grain == 0) {
    grain = std::max<std::size_t>(1, n / (workers * 4));
  }
  const std::size_t chunks = (n + grain - 1) / grain;
  const std::size_t helpers = std::min(workers, chunks) - 1;
  if (helpers == 0) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  auto loop = std::make_shared<LoopState>();
  loop->fn = &fn;
  loop->begin = begin;
  loop->end = end;
  loop->grain = grain;
  loop->chunks = chunks;
  static metrics::Counter& idle = metrics::counter("pool.helpers_idle");
  for (std::size_t h = 0; h < helpers; ++h) {
    pool.submit([loop] {
      if (loop->drain() == 0) idle.add();
    });
  }
  // The caller drains chunks too, then waits only for chunks that some
  // running thread has already claimed; it never waits on a queued task, so
  // a fully busy pool cannot deadlock at any nesting depth.
  loop->drain();
  std::unique_lock lock(loop->mutex);
  loop->all_done.wait(lock, [&] { return loop->done_chunks == chunks; });
  if (loop->first_error) std::rethrow_exception(loop->first_error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_for(ThreadPool::global(), begin, end, fn, grain);
}

void parallel_for_chunks(
    ThreadPool& pool, std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  DSML_REQUIRE(chunk > 0, "parallel_for_chunks: chunk must be > 0");
  const std::size_t n_chunks = (end - begin + chunk - 1) / chunk;
  parallel_for(
      pool, 0, n_chunks,
      [&](std::size_t c) {
        const std::size_t chunk_begin = begin + c * chunk;
        const std::size_t chunk_end = std::min(chunk_begin + chunk, end);
        fn(chunk_begin, chunk_end);
      },
      /*grain=*/1);
}

void parallel_for_chunks(
    std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_chunks(ThreadPool::global(), begin, end, chunk, fn);
}

}  // namespace dsml
