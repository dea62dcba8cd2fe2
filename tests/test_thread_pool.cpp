#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/metrics.hpp"

namespace dsml {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(pool.submit([&] { ++counter; }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RespectsRange) {
  std::vector<std::atomic<int>> hits(100);
  parallel_for(10, 20, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), (i >= 10 && i < 20) ? 1 : 0);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, ComputesCorrectSum) {
  std::vector<double> values(10000);
  parallel_for(0, values.size(), [&](std::size_t i) {
    values[i] = static_cast<double>(i);
  });
  const double sum = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 10000.0 * 9999.0 / 2.0);
}

TEST(ParallelFor, CustomGrain) {
  std::vector<std::atomic<int>> hits(64);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; }, 7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ExplicitPoolOverload) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(500);
  parallel_for(pool, 0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, HonoursDsmlThreadsEnv) {
  ASSERT_EQ(setenv("DSML_THREADS", "3", /*overwrite=*/1), 0);
  ThreadPool pool(0);
  unsetenv("DSML_THREADS");
  EXPECT_EQ(pool.size(), 3u);
}

// --- Stress tests (run under the tsan ctest label) -------------------------

TEST(ThreadPoolStress, ManyShortTasksFromConcurrentSubmitters) {
  ThreadPool pool(4);
  constexpr int kSubmitters = 8;
  constexpr int kTasksEach = 250;
  std::atomic<int> executed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&] {
      std::vector<std::future<void>> futures;
      futures.reserve(kTasksEach);
      for (int i = 0; i < kTasksEach; ++i) {
        futures.push_back(pool.submit([&] {
          executed.fetch_add(1, std::memory_order_relaxed);
        }));
      }
      for (auto& f : futures) f.wait();
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(executed.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPoolStress, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i] {
      if (i % 3 == 0) throw std::runtime_error("task failure");
    }));
  }
  int failures = 0;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (const std::runtime_error&) {
      ++failures;
    }
  }
  EXPECT_EQ(failures, 34);  // i = 0, 3, ..., 99
}

TEST(ThreadPoolStress, ConcurrentParallelForCallers) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> a(2000);
  std::vector<std::atomic<int>> b(2000);
  std::thread ta([&] {
    parallel_for(pool, 0, a.size(), [&](std::size_t i) { ++a[i]; });
  });
  std::thread tb([&] {
    parallel_for(pool, 0, b.size(), [&](std::size_t i) { ++b[i]; });
  });
  ta.join();
  tb.join();
  for (const auto& h : a) EXPECT_EQ(h.load(), 1);
  for (const auto& h : b) EXPECT_EQ(h.load(), 1);
}

/// Occupies every worker of a pool until release(): the pool's queue then
/// only moves once the test lets it.
class BusyWorkers {
 public:
  BusyWorkers(ThreadPool& pool, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      done_.push_back(pool.submit([this] {
        started_.fetch_add(1);
        std::unique_lock lock(mutex_);
        cv_.wait(lock, [this] { return released_; });
      }));
    }
    while (started_.load() < count) std::this_thread::yield();
  }
  ~BusyWorkers() { release(); }

  void release() {
    {
      std::lock_guard lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
    for (auto& f : done_) f.wait();
  }

 private:
  std::vector<std::future<void>> done_;
  std::atomic<std::size_t> started_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST(ThreadPoolStress, NestedLoopRunsOnSeveralThreads) {
  // Each of the nested loop's two iterations waits for the other to arrive.
  // Run inline on one thread, the first would wait forever for the second,
  // so the wait is bounded and a timeout fails the test.
  ThreadPool pool(4);
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t arrived = 0;
  bool timed_out = false;
  std::vector<std::thread::id> threads(2);
  pool.submit([&] {
        parallel_for(pool, 0, 2, [&](std::size_t i) {
          threads[i] = std::this_thread::get_id();
          std::unique_lock lock(mutex);
          ++arrived;
          cv.notify_all();
          if (!cv.wait_for(lock, std::chrono::seconds(30),
                           [&] { return arrived == 2; })) {
            timed_out = true;
          }
        }, 1);
      })
      .get();
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(arrived, 2u);
  EXPECT_NE(threads[0], threads[1]);
}

TEST(ThreadPoolStress, ThreeDeepNestingOnABusyPoolCompletes) {
  ThreadPool pool(2);
  const auto three_deep = [&pool](std::atomic<int>& leaf) {
    parallel_for(pool, 0, 6, [&](std::size_t) {
      parallel_for(pool, 0, 6, [&](std::size_t) {
        parallel_for(pool, 0, 6, [&](std::size_t) {
          leaf.fetch_add(1, std::memory_order_relaxed);
        }, 1);
      }, 1);
    }, 1);
  };
  {
    // Both workers blocked: the caller has to run all 216 leaves itself.
    BusyWorkers busy(pool, pool.size());
    std::atomic<int> leaf{0};
    three_deep(leaf);
    EXPECT_EQ(leaf.load(), 216);
  }
  // Both workers busy with nesting of their own: every level waits only for
  // chunks a running thread has claimed.
  std::atomic<int> leaf{0};
  std::vector<std::future<void>> callers;
  for (std::size_t w = 0; w < pool.size(); ++w) {
    callers.push_back(pool.submit([&] { three_deep(leaf); }));
  }
  for (auto& f : callers) f.get();
  EXPECT_EQ(leaf.load(), 2 * 216);
}

TEST(ThreadPoolStress, ExceptionTwoLevelsDownReachesTheOuterCaller) {
  ThreadPool pool(4);
  std::atomic<int> inner_runs{0};
  EXPECT_THROW(
      parallel_for(pool, 0, 4, [&](std::size_t outer) {
        parallel_for(pool, 0, 16, [&](std::size_t inner) {
          inner_runs.fetch_add(1, std::memory_order_relaxed);
          if (outer == 2 && inner == 7) throw std::out_of_range("deep");
        }, 1);
      }, 1),
      std::out_of_range);
  // Every other chunk still ran to completion before the throw surfaced.
  EXPECT_EQ(inner_runs.load(), 4 * 16);
}

TEST(ThreadPoolStress, LateHelpersDoNoWork) {
  metrics::Counter& idle = metrics::counter("pool.helpers_idle");
  const std::uint64_t idle_before = idle.value();
  std::atomic<int> calls{0};
  std::atomic<int> foreign_calls{0};
  {
    ThreadPool pool(2);
    BusyWorkers busy(pool, pool.size());
    const std::thread::id caller = std::this_thread::get_id();
    {
      // The loop body is destroyed when this scope ends, before the helper
      // is dequeued: a helper that touched it would be a use after scope.
      const std::function<void(std::size_t)> body = [&](std::size_t) {
        calls.fetch_add(1, std::memory_order_relaxed);
        if (std::this_thread::get_id() != caller) foreign_calls.fetch_add(1);
      };
      parallel_for(pool, 0, 100, body, 1);
    }
    EXPECT_EQ(calls.load(), 100);
    busy.release();
  }  // joins the workers after they ran the queued helper
  EXPECT_EQ(calls.load(), 100);
  EXPECT_EQ(foreign_calls.load(), 0);
  EXPECT_GE(idle.value(), idle_before + 1);
}

TEST(ThreadPoolStress, ExceptionInOneChunkDoesNotBlockOthers) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  EXPECT_THROW(
      parallel_for(pool, 0, 1000,
                   [&](std::size_t i) {
                     visited.fetch_add(1, std::memory_order_relaxed);
                     if (i == 500) throw std::logic_error("mid-loop");
                   }),
      std::logic_error);
  EXPECT_GT(visited.load(), 0);
}

}  // namespace
}  // namespace dsml
