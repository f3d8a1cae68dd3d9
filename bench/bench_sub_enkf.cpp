// Substrate benchmark: the EnKF analysis. Its cost is the serial fraction
// of the paper's Fig. 2 pipeline, so its scaling with the observation count
// m and ensemble size N decides how much data (image pixels) can be
// assimilated per cycle.
//
// Expected shape: the QR square root (TSQR R-factor of the stacked
// (m+N) x N panel) scales ~m N^2, linear in the image size.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "enkf/enkf.h"
#include "la/workspace.h"

using namespace wfire;

namespace {

using namespace wfire::enkf;
using namespace wfire::la;

struct Problem {
  Matrix X, HX;
  Vector d, r_std;
};

Problem make_problem(int n, int m, int N, util::Rng& rng) {
  Problem p;
  p.X = Matrix(n, N);
  for (int k = 0; k < N; ++k)
    for (int i = 0; i < n; ++i) p.X(i, k) = rng.normal();
  p.HX = Matrix(m, N);
  for (int k = 0; k < N; ++k)
    for (int i = 0; i < m; ++i) p.HX(i, k) = p.X(i % n, k) + 0.1 * rng.normal();
  p.d = Vector(static_cast<std::size_t>(m), 1.0);
  p.r_std = Vector(static_cast<std::size_t>(m), 0.5);
  return p;
}

}  // namespace

static void BM_EnKF_EnsembleSpace(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int N = 25;
  const int n = 4096;
  util::Rng rng(3);
  const Problem base = make_problem(n, m, N, rng);
  for (auto _ : state) {
    Matrix X = base.X;
    util::Rng r(7);
    const EnKFStats s = enkf_analysis(X, base.HX, base.d, base.r_std, r);
    benchmark::DoNotOptimize(s.increment_rms);
  }
  state.counters["m"] = m;
}
BENCHMARK(BM_EnKF_EnsembleSpace)
    ->Unit(benchmark::kMillisecond)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(40000);

static void BM_EnKF_EnsembleSize(benchmark::State& state) {
  // Cost vs ensemble size at image-scale m (the Fig. 4 regime).
  const int N = static_cast<int>(state.range(0));
  const int m = 10000;
  const int n = 4096;
  util::Rng rng(5);
  const Problem base = make_problem(n, m, N, rng);
  for (auto _ : state) {
    Matrix X = base.X;
    util::Rng r(9);
    const EnKFStats s = enkf_analysis(X, base.HX, base.d, base.r_std, r);
    benchmark::DoNotOptimize(s.increment_rms);
  }
  state.counters["N"] = N;
}
BENCHMARK(BM_EnKF_EnsembleSize)
    ->Unit(benchmark::kMillisecond)
    ->Arg(10)
    ->Arg(25)
    ->Arg(50);

// The acceptance shape for the analysis: a state of n = 20k (image
// assimilation scale), the paper's N = 25 members and image-scale
// observation counts, with a reused workspace so steady-state analyses are
// allocation-free. arg 0 is m; the constant arg 1 = 0 keeps the row names
// gated by bench/ci_baseline_ubuntu.json.
static void BM_EnKF_EnsembleSpaceFactorization(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int n = 20000, N = 25;
  util::Rng rng(29);
  const Problem base = make_problem(n, m, N, rng);
  Workspace ws;
  EnKFOptions opt;
  opt.workspace = &ws;
  for (auto _ : state) {
    Matrix X = base.X;
    util::Rng r(7);
    const EnKFStats s = enkf_analysis(X, base.HX, base.d, base.r_std, r, opt);
    benchmark::DoNotOptimize(s.increment_rms);
  }
  state.counters["m"] = m;
}
BENCHMARK(BM_EnKF_EnsembleSpaceFactorization)
    ->Unit(benchmark::kMillisecond)
    ->Args({1000, 0})
    ->Args({10000, 0});

// The morphing cycle's analysis as the cycle runs it: the 101 x 101 image's
// extended state (n = 5 * 101^2 rows: three residual fields and the two
// mapping components), its m = 3 * 101^2 observations, N = 25 members, the
// perturbations drawn beforehand (the cycle draws them during its encode)
// and a warm workspace. Run with OMP_NUM_THREADS=1 and with the default
// team for the serial/OpenMP ratio of the analysis's regions: the
// row-blocked ensemble statistics, the column-split coefficient product,
// the TSQR and the X += A W update. Ungated.
static void BM_EnKF_CycleShape(benchmark::State& state) {
  const int npix = 101 * 101;
  const int n = 5 * npix, m = 3 * npix, N = 25;
  util::Rng rng(31);
  const Problem base = make_problem(n, m, N, rng);
  Matrix E0(m, N);
  draw_perturbations(rng, E0);
  Workspace ws;
  EnKFOptions opt;
  opt.workspace = &ws;
  Matrix X = base.X, E = E0;
  (void)enkf_analysis_from_draws(X, base.HX, base.d, base.r_std, E, opt);
  for (auto _ : state) {
    state.PauseTiming();
    X = base.X;
    E = E0;
    state.ResumeTiming();
    const EnKFStats s =
        enkf_analysis_from_draws(X, base.HX, base.d, base.r_std, E, opt);
    benchmark::DoNotOptimize(s.increment_rms);
  }
}
BENCHMARK(BM_EnKF_CycleShape)->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
