#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace jaal::runtime {
namespace {

TEST(ThreadPool, RejectsZeroThreads) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, SubmitReturnsFutureWithResult) {
  ThreadPool pool(2);
  auto a = pool.submit([] { return 21 * 2; });
  auto b = pool.submit([] { return std::string("jaal"); });
  EXPECT_EQ(a.get(), 42);
  EXPECT_EQ(b.get(), "jaal");
}

TEST(ThreadPool, SubmitPropagatesExceptionsThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForEmptyAndSingleElementRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForPropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(
          0, 1000,
          [](std::size_t i) {
            if (i == 500) throw std::runtime_error("boom");
          },
          16),
      std::runtime_error);
}

TEST(ThreadPool, NestedParallelForInsideSubmittedTasksCompletes) {
  // Flush tasks call parallel_for from inside pool workers (k-means inside
  // a monitor flush); caller participation must guarantee progress even
  // when every worker is busy with an outer task.
  ThreadPool pool(2);
  std::vector<std::future<long>> outer;
  for (int t = 0; t < 4; ++t) {
    outer.push_back(pool.submit([&pool] {
      std::vector<long> partial(256, 0);
      pool.parallel_for(0, partial.size(), [&](std::size_t i) {
        partial[i] = static_cast<long>(i);
      });
      return std::accumulate(partial.begin(), partial.end(), 0L);
    }));
  }
  for (auto& f : outer) EXPECT_EQ(f.get(), 255L * 256L / 2);
}

// Runtime stats are backed by the telemetry registry.
TEST(ThreadPool, StatsCountTasksAndParallelFor) {
  ThreadPool pool(2);
  pool.submit([] {}).get();
  pool.parallel_for(0, 64, [](std::size_t) {}, 8);
  const RuntimeStatsSnapshot snap = pool.stats().snapshot(pool.threads());
  EXPECT_EQ(snap.threads, 2u);
  EXPECT_GE(snap.tasks_submitted, 1u);
  EXPECT_EQ(snap.parallel_for_calls, 1u);
}

TEST(ThreadsFromEnv, ParsesOverrideAndFallsBack) {
  ::setenv("JAAL_THREADS", "6", 1);
  EXPECT_EQ(threads_from_env(1), 6u);
  ::setenv("JAAL_THREADS", "not-a-number", 1);
  EXPECT_EQ(threads_from_env(3), 3u);
  ::setenv("JAAL_THREADS", "0", 1);  // 0 = all hardware threads
  EXPECT_GE(threads_from_env(1), 1u);
  ::unsetenv("JAAL_THREADS");
  EXPECT_EQ(threads_from_env(5), 5u);
}

}  // namespace
}  // namespace jaal::runtime
