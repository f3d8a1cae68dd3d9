// Substrate benchmark: the two EnKF solver paths. The analysis cost is the
// serial fraction of the paper's Fig. 2 pipeline, so its scaling with the
// observation count m and ensemble size N decides how much data (image
// pixels) can be assimilated per cycle.
//
// Expected shape: the observation-space path (Cholesky of an m x m matrix)
// scales ~m^3 and wins for few observations; the ensemble-space path (TSQR
// R-factor of the stacked (m+N) x N panel) scales ~m N^2 and wins once
// m >> N — the image assimilation regime.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "backend_args.h"
#include "enkf/enkf.h"
#include "enkf/ensemble.h"
#include "la/backend.h"
#include "la/workspace.h"

using namespace wfire;
using wfire::bench::arg_backend;
using wfire::bench::backend_name;
using wfire::enkf::Factorization;

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

void print_crossover_note() {
  static bool done = false;
  if (done) return;
  done = true;
  std::printf("\n=== Substrate: EnKF solver paths (N = 25 members) ===\n");
  std::printf("obs-space Cholesky ~ O(m^3); ensemble-space QR ~ O(m N^2).\n");
  std::printf("auto path switches at m = 2N; timings below show the "
              "crossover.\n\n");
}

}  // namespace

static void BM_EnKF_ObsSpace(benchmark::State& state) {
  print_crossover_note();
  const int m = static_cast<int>(state.range(0));
  const int N = 25;
  const int n = 4096;
  util::Rng rng(3);
  const Problem base = make_problem(n, m, N, rng);
  EnKFOptions opt;
  opt.path = SolverPath::kObsSpace;
  for (auto _ : state) {
    Matrix X = base.X;
    util::Rng r(7);
    const EnKFStats s = enkf_analysis(X, base.HX, base.d, base.r_std, r, opt);
    benchmark::DoNotOptimize(s.increment_rms);
  }
  state.counters["m"] = m;
}
BENCHMARK(BM_EnKF_ObsSpace)
    ->Unit(benchmark::kMillisecond)
    ->Arg(25)
    ->Arg(100)
    ->Arg(400)
    ->Arg(1000);

static void BM_EnKF_EnsembleSpace(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int N = 25;
  const int n = 4096;
  util::Rng rng(3);
  const Problem base = make_problem(n, m, N, rng);
  EnKFOptions opt;
  opt.path = SolverPath::kEnsembleSpace;
  for (auto _ : state) {
    Matrix X = base.X;
    util::Rng r(7);
    const EnKFStats s = enkf_analysis(X, base.HX, base.d, base.r_std, r, opt);
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
  EnKFOptions opt;
  opt.path = SolverPath::kEnsembleSpace;
  for (auto _ : state) {
    Matrix X = base.X;
    util::Rng r(9);
    const EnKFStats s = enkf_analysis(X, base.HX, base.d, base.r_std, r, opt);
    benchmark::DoNotOptimize(s.increment_rms);
  }
  state.counters["N"] = N;
}
BENCHMARK(BM_EnKF_EnsembleSize)
    ->Unit(benchmark::kMillisecond)
    ->Arg(10)
    ->Arg(25)
    ->Arg(50);

// The acceptance shape for the blocked backend: a state of n >= 20k (image
// assimilation scale) with the paper's N = 25 members, per backend, with a
// reused workspace so steady-state analyses are allocation-free. The
// blocked/reference ratio of these timings is the headline number in
// BENCH_pr3.json.
static void BM_EnKF_LargeStateObsSpace(benchmark::State& state) {
  const std::int64_t be = state.range(0);
  const int n = 20000, m = 1000, N = 25;
  util::Rng rng(17);
  const Problem base = make_problem(n, m, N, rng);
  ScopedBackend scope(arg_backend(be));
  Workspace ws;
  EnKFOptions opt;
  opt.path = SolverPath::kObsSpace;
  opt.workspace = &ws;
  for (auto _ : state) {
    Matrix X = base.X;
    util::Rng r(7);
    const EnKFStats s = enkf_analysis(X, base.HX, base.d, base.r_std, r, opt);
    benchmark::DoNotOptimize(s.increment_rms);
  }
  state.SetLabel(backend_name(be));
}
BENCHMARK(BM_EnKF_LargeStateObsSpace)
    ->Unit(benchmark::kMillisecond)
    ->Arg(0)
    ->Arg(1);

static void BM_EnKF_LargeStateEnsembleSpace(benchmark::State& state) {
  const std::int64_t be = state.range(0);
  const int n = 20000, m = 10000, N = 25;
  util::Rng rng(19);
  const Problem base = make_problem(n, m, N, rng);
  ScopedBackend scope(arg_backend(be));
  Workspace ws;
  EnKFOptions opt;
  opt.path = SolverPath::kEnsembleSpace;
  opt.workspace = &ws;
  for (auto _ : state) {
    Matrix X = base.X;
    util::Rng r(7);
    const EnKFStats s = enkf_analysis(X, base.HX, base.d, base.r_std, r, opt);
    benchmark::DoNotOptimize(s.increment_rms);
  }
  state.SetLabel(backend_name(be));
}
BENCHMARK(BM_EnKF_LargeStateEnsembleSpace)
    ->Unit(benchmark::kMillisecond)
    ->Arg(0)
    ->Arg(1);

// The PR 4 headline: the full ensemble-space analysis with the QR
// square-root factorization against the Jacobi-SVD path it replaced, at the
// paper's N = 25 with image-scale observation counts. arg 0 is m, arg 1
// selects the factorization (0 = qr, 1 = svd); both run the blocked kernel
// backend with a reused workspace, so the difference is the factorization
// itself.
static void BM_EnKF_EnsembleSpaceFactorization(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const bool use_svd = state.range(1) != 0;
  const int n = 20000, N = 25;
  util::Rng rng(29);
  const Problem base = make_problem(n, m, N, rng);
  Workspace ws;
  EnKFOptions opt;
  opt.path = SolverPath::kEnsembleSpace;
  opt.factorization = use_svd ? Factorization::kSvd : Factorization::kQr;
  opt.workspace = &ws;
  for (auto _ : state) {
    Matrix X = base.X;
    util::Rng r(7);
    const EnKFStats s = enkf_analysis(X, base.HX, base.d, base.r_std, r, opt);
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
