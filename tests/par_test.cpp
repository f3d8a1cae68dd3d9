// Thread pool and ensemble runner tests: the pool's FIFO tasks under
// concurrency and shutdown, and the runner's phase width and timing.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "par/ensemble_runner.h"
#include "par/thread_pool.h"
#include "util/omp_compat.h"

using namespace wfire::par;

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2);
  int value = 0;
  std::string text;
  pool.submit([&] { value = 21 * 2; });
  pool.submit([&] { text = "ok"; });
  pool.shutdown();  // drains both tasks and joins the workers
  EXPECT_EQ(value, 42);
  EXPECT_EQ(text, "ok");
}

TEST(ThreadPool, ManyConcurrentIncrements) {
  std::atomic<long> total{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i)
      pool.submit([&total, i] { total.fetch_add(i); });
  }  // the destructor drains the queue
  EXPECT_EQ(total.load(), 999L * 1000 / 2);
}

namespace {

// Occupies a pool worker until `gate` opens, and lets the test wait until
// the task has actually been dequeued (so later submissions really queue).
struct Blocker {
  std::promise<void> gate;
  std::atomic<bool> started{false};

  explicit Blocker(ThreadPool& pool) {
    std::shared_future<void> opened = gate.get_future().share();
    pool.submit([this, opened] {
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

// Stress for the TSan job: concurrent submitters racing the draining
// shutdown. Submits that lose the race throw; every accepted task runs
// before the join.
TEST(ThreadPool, ConcurrentSubmitAndShutdownStress) {
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    std::atomic<long> accepted{0};
    std::atomic<long> ran{0};
    const auto submit_all = [&] {
      for (int i = 0; i < 50; ++i) {
        try {
          pool.submit([&ran] { ran.fetch_add(1); });
          accepted.fetch_add(1);
        } catch (const std::runtime_error&) {
          break;  // pool already stopping
        }
      }
    };
    std::thread submitter(submit_all);
    submit_all();
    pool.shutdown();
    submitter.join();
    // A submit that returned was accepted before the stop, so it ran.
    EXPECT_EQ(ran.load(), accepted.load());
  }
}

TEST(EnsembleRunner, RecordsPhaseTimings) {
  EnsembleRunner runner(2);
  int count = 0;
  runner.run_phase("advance", [&] { count += 1; });
  runner.run_phase("enkf", [&] { count += 100; });
  EXPECT_EQ(count, 101);
  ASSERT_EQ(runner.timings().size(), 2u);
  EXPECT_EQ(runner.timings()[0].name, "advance");
  EXPECT_EQ(runner.timings()[1].name, "enkf");
  for (const PhaseTiming& t : runner.timings()) EXPECT_GE(t.seconds, 0.0);
  runner.clear_timings();
  EXPECT_TRUE(runner.timings().empty());
}

// A phase runs on the caller's OpenMP team at the runner's width, and the
// caller's width comes back afterwards; width <= 0 keeps the caller's.
TEST(EnsembleRunner, PhaseRunsAtRunnerWidth) {
#if !defined(WFIRE_HAVE_OPENMP)
  GTEST_SKIP() << "serial build: no OpenMP team";
#else
  const int caller = omp_get_max_threads();
  for (const int width : {1, 3}) {
    EnsembleRunner runner(width);
    int seen = -1;
    runner.run_phase("enkf", [&] { seen = omp_get_max_threads(); });
    EXPECT_EQ(seen, width);
    EXPECT_EQ(omp_get_max_threads(), caller);
  }
  EnsembleRunner runner(0);
  int seen = -1;
  runner.run_phase("enkf", [&] { seen = omp_get_max_threads(); });
  EXPECT_EQ(seen, caller);
#endif
}
