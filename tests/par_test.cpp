// Thread pool and ensemble runner tests: correctness under concurrency,
// exception propagation, and phase timing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <numeric>
#include <thread>

#include "par/ensemble_runner.h"
#include "par/thread_pool.h"

using namespace wfire::par;

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(257, [&](int i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](int i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ManyConcurrentIncrements) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.parallel_for(1000, [&](int i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), 999L * 1000 / 2);
}

TEST(ThreadPool, SubmitFutureCarriesException) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::logic_error("bad"); });
  EXPECT_THROW(f.get(), std::logic_error);
}

// The exception contract that makes parallel_for safe to call with a lambda
// on the caller's stack: every task — started or still queued — runs (or is
// executed to completion) before the first exception is rethrown. An early
// exit here is a use-after-free: queued tasks hold references into the
// caller's frame.
TEST(ThreadPool, ParallelForWaitsForAllTasksOnException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(8,
                        [&](int i) {
                          if (i == 0) throw std::runtime_error("first");
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(20));
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // When parallel_for returns, every non-throwing task has finished.
  EXPECT_EQ(completed.load(), 7);
}

namespace {

// Occupies a pool worker until `gate` opens, and lets the test wait until
// the task has actually been dequeued (so later submissions really queue).
struct Blocker {
  std::promise<void> gate;
  std::atomic<bool> started{false};
  std::future<void> fut;

  explicit Blocker(ThreadPool& pool) {
    std::shared_future<void> opened = gate.get_future().share();
    fut = pool.submit([this, opened] {
      started.store(true);
      opened.wait();
    });
    while (!started.load()) std::this_thread::yield();
  }
};

}  // namespace

TEST(ThreadPool, ShutdownDrainRunsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    Blocker blocker(pool);
    for (int i = 0; i < 4; ++i) pool.submit([&] { ran.fetch_add(1); });
    blocker.gate.set_value();
    pool.shutdown();
    EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  }
  EXPECT_EQ(ran.load(), 4);
}

// Stress for the TSan job: a concurrent submitter racing a throwing
// parallel_for and the shutdown — the exception and shutdown paths the
// serial tests above exercise one at a time.
TEST(ThreadPool, ConcurrentSubmitAndThrowingParallelForStress) {
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    std::atomic<long> sum{0};
    std::thread submitter([&] {
      for (int i = 0; i < 50; ++i) {
        try {
          pool.submit([&sum, i] { sum.fetch_add(i); });
        } catch (const std::runtime_error&) {
          break;  // pool already stopping
        }
      }
    });
    EXPECT_THROW(pool.parallel_for(64,
                                   [&](int i) {
                                     if (i % 17 == 3)
                                       throw std::runtime_error("boom");
                                     sum.fetch_add(1);
                                   }),
                 std::runtime_error);
    // The submitter may still be running: submits that lose the race with
    // the draining shutdown throw, the rest run before the join.
    pool.shutdown();
    submitter.join();
  }
}

TEST(EnsembleRunner, RecordsPhaseTimings) {
  EnsembleRunner runner(2);
  std::atomic<int> count{0};
  runner.run_phase("advance", 10, [&](int) { count.fetch_add(1); });
  runner.run_serial_phase("enkf", [&] { count.fetch_add(100); });
  EXPECT_EQ(count.load(), 110);
  ASSERT_EQ(runner.timings().size(), 2u);
  EXPECT_EQ(runner.timings()[0].name, "advance");
  EXPECT_EQ(runner.timings()[1].name, "enkf");
  for (const PhaseTiming& t : runner.timings()) EXPECT_GE(t.seconds, 0.0);
  runner.clear_timings();
  EXPECT_TRUE(runner.timings().empty());
}

TEST(EnsembleRunner, MemberTasksSeeTheirIndex) {
  EnsembleRunner runner(3);
  std::vector<int> seen(25, -1);
  runner.run_phase("advance", 25, [&](int k) { seen[k] = k; });
  for (int k = 0; k < 25; ++k) EXPECT_EQ(seen[k], k);
}
