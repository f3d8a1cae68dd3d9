// Fixed-size thread pool. The paper's parallel structure (Fig. 2) assigns
// ensemble members to subsets of processors; at laptop scale the same
// decomposition is expressed as member tasks on a pool. The pool owns the
// cores: the single-grid kernels a member task runs are serial, so no task
// opens an OpenMP team (policy in docs/ARCHITECTURE.md).
//
// The pool is also the execution substrate of the scenario server
// (serve/scenario_server): long-lived, with three priority classes so
// interactive work overtakes bulk work, cooperative cancellation of not-yet-
// started tasks, and an explicit two-mode shutdown (drain vs discard).
#pragma once

#include <array>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace wfire::par {

// Scheduling class of a submitted task. Workers always pop the highest
// nonempty class, so kHigh tasks overtake queued kNormal/kLow work (they do
// not preempt tasks already running).
enum class Priority : int { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr int kPriorityLevels = 3;

class ThreadPool {
 public:
  // n <= 0 selects hardware_concurrency().
  explicit ThreadPool(int n = 0);
  ~ThreadPool();  // == shutdown(/*drain=*/true)

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  // Enqueues a task; the future resolves with its result (or exception).
  template <typename F>
  auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
    return submit(Priority::kNormal, std::forward<F>(f));
  }

  template <typename F>
  auto submit(Priority p, F&& f) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit after stop");
      queues_[static_cast<std::size_t>(p)].emplace_back([task] { (*task)(); });
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

  // Discards every queued-but-unstarted task; their futures fail with
  // std::future_error (broken_promise). Running tasks are unaffected and the
  // pool stays usable. Returns the number of tasks discarded.
  std::size_t cancel_pending();

  // Stops accepting work and joins the workers. drain=true (the destructor's
  // mode) runs everything already queued first; drain=false discards the
  // queue as cancel_pending() does. Idempotent; concurrent submits that lose
  // the race throw.
  void shutdown(bool drain = true);

  // Queued-but-unstarted task count across all priority classes (snapshot).
  [[nodiscard]] std::size_t pending() const;

 private:
  void worker_loop();
  std::size_t discard_queues_locked();

  std::vector<std::thread> workers_;
  std::array<std::deque<std::function<void()>>, kPriorityLevels> queues_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  bool joined_ = false;
};

}  // namespace wfire::par
