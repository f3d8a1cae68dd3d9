#include "par/thread_pool.h"

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

void ThreadPool::parallel_for(int n, const std::function<void(int)>& fn) {
  std::vector<std::future<void>> futures;
  futures.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    futures.push_back(submit([&fn, i] { fn(i); }));
  // Every future is drained before the first exception propagates: the tasks
  // capture fn (and whatever the caller's lambda references) by reference,
  // so returning while siblings are still queued or running would leave them
  // with dangling references — the shutdown/exception-hygiene bug class this
  // loop exists to prevent.
  std::exception_ptr first;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

}  // namespace wfire::par
