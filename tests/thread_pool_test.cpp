// Tests for the worker pool and parallel_for (support/thread_pool.hpp).

#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace aa::support {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WorkerCountDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPool, ExplicitWorkerCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      (void)pool.submit([&counter] { ++counter; });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 5, 5, [](std::size_t) { FAIL() << "must not run"; });
  parallel_for(pool, 7, 3, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelFor, NonzeroBegin) {
  ThreadPool pool(4);
  std::atomic<std::size_t> sum{0};
  parallel_for(pool, 10, 20, [&](std::size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), std::size_t{145});  // 10 + ... + 19
}

TEST(ParallelFor, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("index 37");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, MoreWorkersThanItems) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  parallel_for(pool, 0, 3, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ParallelFor, PoolStaysUsableAfterBodyException) {
  // A propagated exception must leave the pool fully drained and healthy:
  // no worker may still be touching the dead frame, and later waves must
  // run normally on the same pool.
  ThreadPool pool(4);
  for (int wave = 0; wave < 3; ++wave) {
    EXPECT_THROW(
        parallel_for(pool, 0, 200,
                     [](std::size_t i) {
                       if (i % 50 == 13) throw std::runtime_error("boom");
                     }),
        std::runtime_error);
    std::atomic<int> counter{0};
    parallel_for(pool, 0, 100, [&](std::size_t) { ++counter; });
    EXPECT_EQ(counter.load(), 100);
  }
}

TEST(ThreadPool, ReuseAcrossManySubmissionWaves) {
  // Interleaves bare submits and parallel_for sweeps on one pool; every
  // wave must fully complete before the next is issued.
  ThreadPool pool(3);
  long long expected = 0;
  std::atomic<long long> total{0};
  for (int wave = 0; wave < 20; ++wave) {
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 10; ++i) {
      futures.push_back(pool.submit([&total, wave] { total += wave; }));
      expected += wave;
    }
    for (auto& f : futures) f.get();
    std::atomic<int> hits{0};
    parallel_for(pool, 0, 64, [&](std::size_t) { ++hits; });
    EXPECT_EQ(hits.load(), 64);
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(GlobalPool, IsSingletonAndUsable) {
  ThreadPool& a = global_pool();
  ThreadPool& b = global_pool();
  EXPECT_EQ(&a, &b);
  std::atomic<int> counter{0};
  parallel_for(a, 0, 10, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 10);
}

}  // namespace
}  // namespace aa::support
