#pragma once

// Fixed-size worker pool with a blocking task queue, plus a static-chunked
// parallel_for used to fan the Monte-Carlo trials of the experiment harness
// across cores. Determinism is preserved by seeding each loop index
// independently (see support/prng.hpp), so the schedule never affects results.

#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "support/sync.hpp"

namespace aa::support {

class ThreadPool {
 public:
  /// Creates `workers` threads; 0 means std::thread::hardware_concurrency()
  /// (with a floor of 1).
  explicit ThreadPool(std::size_t workers = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks and joins all workers.
  ~ThreadPool();

  [[nodiscard]] std::size_t worker_count() const noexcept {
    return threads_.size();
  }

  /// Enqueues a task; the returned future reports completion or exception.
  std::future<void> submit(std::function<void()> task) AA_EXCLUDES(mutex_);

 private:
  void worker_loop() AA_EXCLUDES(mutex_);

  // Lock order: leaf — nothing else is acquired while held.
  Mutex mutex_;
  CondVar cv_;
  std::queue<std::packaged_task<void()>> tasks_ AA_GUARDED_BY(mutex_);
  std::vector<std::thread> threads_;
  bool stopping_ AA_GUARDED_BY(mutex_) = false;
};

/// Runs body(i) for i in [begin, end) across the pool with static chunking.
/// Blocks until every index has completed (even when some chunk throws, so
/// no worker can outlive the caller's stack frame); rethrows the first
/// exception in chunk order.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

/// Library-wide shared pool (lazily constructed, hardware-sized).
[[nodiscard]] ThreadPool& global_pool();

}  // namespace aa::support
