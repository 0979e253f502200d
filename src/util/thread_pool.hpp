// A minimal fixed-size worker pool.
//
// abs::Device creates one pool per simulated GPU (per start()/stop() cycle)
// and gives each worker a static shard of its CUDA-block analogues, so the
// block set runs over however many hardware threads the host actually has.
// The pool deliberately exposes only three primitives — submit(),
// wait_idle() and failure() — because the ABS host/device protocol is
// built on asynchronous mailboxes, not on futures: a device's workers loop
// until the stop flag; the host never joins on individual tasks
// (Device::stop() destroys the pool, which drains and joins). failure()
// is the fault-isolation hook: a task that throws kills neither the
// worker nor the process — the first exception is captured for the owner
// to surface as a device failure. An optional task-end callback tells an
// owner that parks instead of polling when a task is over; it runs after
// the capture, so whoever it wakes finds the failure already in place.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace absq {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1). `on_task_end`, when set, runs
  /// on the worker after every task — returned or thrown, and after a
  /// thrown exception is captured (see failure()). It must not throw.
  explicit ThreadPool(std::size_t threads,
                      std::function<void()> on_task_end = {});

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. An exception escaping a task does NOT terminate the
  /// process: the first one is captured (see failure()) and the worker
  /// returns to the queue, so one bad task cannot take the pool down.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle. Does not
  /// rethrow captured task failures — poll failure() for those.
  void wait_idle();

  /// The first exception that escaped a task, or nullptr while none has.
  /// One relaxed load when the pool is healthy; the owner (Device, and
  /// through it the solver watchdog) polls this to detect worker death.
  [[nodiscard]] std::exception_ptr failure() const {
    if (!failed_.load(std::memory_order_acquire)) return nullptr;
    std::lock_guard lock(mutex_);
    return failure_;
  }

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::atomic<bool> failed_{false};
  std::exception_ptr failure_;  ///< first escaping task exception
  std::function<void()> on_task_end_;
  std::vector<std::thread> workers_;
};

}  // namespace absq
