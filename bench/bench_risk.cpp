// Monte Carlo burn-probability products end to end: a K-member sweep
// advanced as one batched ensemble and reduced into a probability grid, and
// the product-cache hit path that serves repeat fetches of the finished
// grid without re-simulation.
//
// Expected shape: sweep throughput (member runs/s, cell-steps/s) scales
// with the OpenMP width until the batch's grid sweeps saturate the cores;
// the reduction itself is a per-member O(cells) fold and never shows.
// Cache hits are a key hash plus an LRU splice — nanoseconds, independent
// of K and grid size — which is the entire point of serving products
// instead of simulations.
//
// BM_Risk_Sweep arguments: (members, OpenMP width).
#include <benchmark/benchmark.h>

#include "risk/product_cache.h"
#include "risk/sweep.h"

using namespace wfire;

namespace {

serve::ScenarioSpec bench_base() {
  serve::ScenarioSpec spec;
  spec.nx = spec.ny = 41;
  spec.wind_u = 2.0;
  spec.wind_v = 0.5;
  spec.wind_jitter = 0.5;
  spec.seed = 9000;
  const double cx = 0.4 * (spec.nx - 1) * spec.dx;
  const double cy = 0.5 * (spec.ny - 1) * spec.dy;
  spec.ignitions = {
      levelset::Ignition{levelset::CircleIgnition{cx, cy, 15.0, 0.0}}};
  return spec;
}

risk::PerturbationSpec bench_pert() {
  risk::PerturbationSpec pert;
  pert.wind_speed_sigma = 0.5;
  pert.wind_dir_sigma = 0.2;
  pert.moisture_sigma = 0.15;
  pert.burn_time_sigma = 0.15;
  pert.ignition_jitter = 6.0;
  pert.seed = 77;
  return pert;
}

}  // namespace

static void BM_Risk_Sweep(benchmark::State& state) {
  const serve::ScenarioSpec base = bench_base();
  risk::SweepOptions opt;
  opt.members = static_cast<int>(state.range(0));
  opt.threads = static_cast<int>(state.range(1));
  opt.horizon = 30.0;

  long long runs = 0;
  for (auto _ : state) {
    risk::SweepDriver driver(base, bench_pert(), opt);
    const risk::BurnProbabilityGrid grid = driver.run();
    benchmark::DoNotOptimize(grid.probability.data());
    runs += opt.members;
  }
  const double cell_steps_per_run =
      (opt.horizon / base.dt) * base.nx * base.ny;
  state.counters["runs_per_s"] = benchmark::Counter(
      static_cast<double>(runs), benchmark::Counter::kIsRate);
  state.counters["cell_steps_per_s"] = benchmark::Counter(
      static_cast<double>(runs) * cell_steps_per_run,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Risk_Sweep)
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({64, 4})
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

static void BM_Risk_CacheFetch(benchmark::State& state) {
  const serve::ScenarioSpec base = bench_base();
  const risk::PerturbationSpec pert = bench_pert();
  risk::SweepOptions opt;
  opt.members = 8;
  opt.horizon = 10.0;

  risk::ProductCache cache(4);
  (void)cache.fetch(base, pert, opt);  // warm: the one sweep happens here

  long long cells = 0;
  for (auto _ : state) {
    const auto grid = cache.fetch(base, pert, opt);
    benchmark::DoNotOptimize(grid.get());
    cells += static_cast<long long>(grid->nx) * grid->ny;
  }
  state.counters["fetches_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
  state.counters["cells_per_s"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kIsRate);
  state.counters["sweeps_run"] = static_cast<double>(cache.sweeps_run());
}
BENCHMARK(BM_Risk_CacheFetch)->Unit(benchmark::kMicrosecond);
