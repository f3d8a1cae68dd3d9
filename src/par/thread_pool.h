// Fixed-size thread pool. The paper's parallel structure (Fig. 2) assigns
// ensemble members to subsets of processors; at laptop scale the same
// decomposition is expressed as member tasks on a pool. The pool owns the
// cores: the single-grid kernels a member task runs are serial, so no task
// opens an OpenMP team (policy in docs/ARCHITECTURE.md).
//
// The pool is also the execution substrate of the scenario server
// (serve/scenario_server): long-lived, one FIFO queue, and a shutdown that
// drains what is already queued.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
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

  // Enqueues a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  // Runs fn(i) for i in [0, n) across the pool and waits for completion.
  // Waits for *every* task — started or queued — before returning, then
  // rethrows the first exception encountered (tasks reference fn and the
  // caller's frame, so an early exit would leave live tasks with dangling
  // references).
  void parallel_for(int n, const std::function<void(int)>& fn);

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
