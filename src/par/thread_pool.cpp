#include "par/thread_pool.h"

#include <stdexcept>

namespace wfire::par {

ThreadPool::ThreadPool(int n) {
  if (n <= 0) n = static_cast<int>(std::thread::hardware_concurrency());
  if (n <= 0) n = 2;
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    if (joined_) return;
    joined_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Stopping with work still queued drains it first.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

}  // namespace wfire::par
