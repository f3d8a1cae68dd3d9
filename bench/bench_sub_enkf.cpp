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
#include "enkf/reference.h"
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

// The acceptance shape for the blocked kernels: a state of n >= 20k (image
// assimilation scale) with the paper's N = 25 members, with a reused
// workspace so steady-state analyses are allocation-free.
// The acceptance shape for the blocked kernels: a state of n >= 20k (image
// assimilation scale) with the paper's N = 25 members, with a reused
// workspace so steady-state analyses are allocation-free.
static void BM_EnKF_LargeStateEnsembleSpace(benchmark::State& state) {
  const int n = 20000, m = 10000, N = 25;
  util::Rng rng(19);
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
}
BENCHMARK(BM_EnKF_LargeStateEnsembleSpace)->Unit(benchmark::kMillisecond);

// The full analysis, QR square root against the Jacobi-SVD oracle
// (enkf::reference::analysis_svd), at the paper's N = 25 with image-scale
// observation counts. arg 0 is m, arg 1 selects the solver (0 = qr, 1 =
// svd); both run the blocked kernels with a reused workspace, so the
// difference is the factorization itself.
static void BM_EnKF_EnsembleSpaceFactorization(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const bool use_svd = state.range(1) != 0;
  const int n = 20000, N = 25;
  util::Rng rng(29);
  const Problem base = make_problem(n, m, N, rng);
  Workspace ws;
  EnKFOptions opt;
  opt.workspace = &ws;
  for (auto _ : state) {
    Matrix X = base.X;
    util::Rng r(7);
    const EnKFStats s =
        use_svd
            ? enkf::reference::analysis_svd(X, base.HX, base.d, base.r_std, r,
                                            opt)
            : enkf_analysis(X, base.HX, base.d, base.r_std, r, opt);
    benchmark::DoNotOptimize(s.increment_rms);
  }
  state.SetLabel(use_svd ? "svd" : "qr");
  state.counters["m"] = m;
}
BENCHMARK(BM_EnKF_EnsembleSpaceFactorization)
    ->Unit(benchmark::kMillisecond)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

BENCHMARK_MAIN();
