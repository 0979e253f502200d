#include "util/thread_pool.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/failpoint.hpp"

namespace absq {

ThreadPool::ThreadPool(std::size_t threads,
                       std::function<void()> on_task_end)
    : on_task_end_(std::move(on_task_end)) {
  ABSQ_CHECK(threads >= 1, "a thread pool needs at least one worker");
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
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    ABSQ_CHECK(!stopping_, "submit() after shutdown began");
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      fail::maybe_fail("thread_pool.task");
      task();
    } catch (...) {
      // First failure wins; the worker itself survives and returns to the
      // queue — fault isolation, not fail-fast.
      std::lock_guard lock(mutex_);
      if (failure_ == nullptr) failure_ = std::current_exception();
      failed_.store(true, std::memory_order_release);
    }
    // Before the idle accounting, so wait_idle() also waits for it.
    if (on_task_end_) on_task_end_();
    {
      std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) all_idle_.notify_all();
    }
  }
}

}  // namespace absq
