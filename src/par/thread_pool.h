// Fixed-size thread pool: the execution substrate of the scenario server
// (serve/scenario_server). Long-lived, one FIFO queue, and a shutdown that
// drains what is already queued. The assimilation cycle and the
// burn-probability sweep run no pool; they run on the caller's OpenMP team
// (policy in docs/ARCHITECTURE.md).
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace wfire::par {

class ThreadPool {
 public:
  // n <= 0 selects hardware_concurrency().
  explicit ThreadPool(int n = 0);
  ~ThreadPool();  // == shutdown()

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task. A task must not throw: an exception that escapes it
  // terminates the process, as from any std::thread. Throws
  // std::runtime_error after shutdown().
  void submit(std::function<void()> task);

  // Stops accepting work, runs everything already queued, and joins the
  // workers. Idempotent; concurrent submits that lose the race throw.
  void shutdown();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool joined_ = false;
};

}  // namespace wfire::par
