// Substrate benchmark: the dense-LA kernel backends head to head. The EnKF
// analysis cost decomposes into gemm (anomaly products), syrk (S = HA HA^T),
// and Cholesky (solve of S); these measure each kernel at analysis-relevant
// shapes for the blocked and reference backends, so BENCH_*.json tracks
// where a regression comes from.
#include <benchmark/benchmark.h>

#include "backend_args.h"
#include "la/backend.h"
#include "la/blas.h"
#include "la/cholesky.h"
#include "util/rng.h"

using namespace wfire::la;
using wfire::bench::arg_backend;
using wfire::bench::backend_name;
using wfire::util::Rng;

namespace {

Matrix random_spd(int n, Rng& rng) {
  const Matrix A = Matrix::random_normal(n, n, rng);
  Matrix S = matmul(A, A, false, true);
  for (int i = 0; i < n; ++i) S(i, i) += n;
  return S;
}

}  // namespace

static void BM_LA_GemmSquare(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::int64_t be = state.range(1);
  Rng rng(1);
  const Matrix A = Matrix::random_normal(n, n, rng);
  const Matrix B = Matrix::random_normal(n, n, rng);
  Matrix C(n, n, 0.0);
  ScopedBackend scope(arg_backend(be));
  for (auto _ : state) {
    gemm(false, false, 1.0, A, B, 0.0, C);
    benchmark::DoNotOptimize(C.data());
  }
  state.SetLabel(backend_name(be));
  state.counters["n"] = n;
}
BENCHMARK(BM_LA_GemmSquare)
    ->Unit(benchmark::kMillisecond)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({512, 0})
    ->Args({512, 1});

static void BM_LA_GemmTallSkinny(benchmark::State& state) {
  // A W update shape: n x N times N x N (state times member weights).
  const int n = static_cast<int>(state.range(0));
  const std::int64_t be = state.range(1);
  const int N = 25;
  Rng rng(2);
  const Matrix A = Matrix::random_normal(n, N, rng);
  const Matrix W = Matrix::random_normal(N, N, rng);
  Matrix X = Matrix::random_normal(n, N, rng);
  ScopedBackend scope(arg_backend(be));
  for (auto _ : state) {
    gemm(false, false, 1.0, A, W, 1.0, X);
    benchmark::DoNotOptimize(X.data());
  }
  state.SetLabel(backend_name(be));
  state.counters["n"] = n;
}
BENCHMARK(BM_LA_GemmTallSkinny)
    ->Unit(benchmark::kMillisecond)
    ->Args({20000, 0})
    ->Args({20000, 1});

static void BM_LA_Syrk(benchmark::State& state) {
  // S = HA HA^T shape: m x N anomalies, m x m output.
  const int m = static_cast<int>(state.range(0));
  const std::int64_t be = state.range(1);
  const int N = 25;
  Rng rng(3);
  const Matrix HA = Matrix::random_normal(m, N, rng);
  Matrix S(m, m, 0.0);
  ScopedBackend scope(arg_backend(be));
  for (auto _ : state) {
    syrk(false, 1.0 / (N - 1), HA, 0.0, S);
    benchmark::DoNotOptimize(S.data());
  }
  state.SetLabel(backend_name(be));
  state.counters["m"] = m;
}
BENCHMARK(BM_LA_Syrk)
    ->Unit(benchmark::kMillisecond)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});

static void BM_LA_Cholesky(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::int64_t be = state.range(1);
  Rng rng(4);
  const Matrix S = random_spd(n, rng);
  Matrix L;
  ScopedBackend scope(arg_backend(be));
  for (auto _ : state) {
    const int jitter = cholesky_factor(S, L);
    benchmark::DoNotOptimize(jitter);
    benchmark::DoNotOptimize(L.data());
  }
  state.SetLabel(backend_name(be));
  state.counters["n"] = n;
}
BENCHMARK(BM_LA_Cholesky)
    ->Unit(benchmark::kMillisecond)
    ->Args({400, 0})
    ->Args({400, 1})
    ->Args({1000, 0})
    ->Args({1000, 1});

static void BM_LA_CholeskySolveMultiRhs(benchmark::State& state) {
  // The analysis solve: m x m factor against N = 25 innovation columns.
  // One row: the triangular solves have no backend variant to select.
  const int n = static_cast<int>(state.range(0));
  const int N = 25;
  Rng rng(5);
  const Matrix S = random_spd(n, rng);
  const CholeskyResult f = cholesky(S);
  const Matrix B = Matrix::random_normal(n, N, rng);
  Matrix X = B;
  for (auto _ : state) {
    X = B;
    cholesky_solve_in_place(f.L, X);
    benchmark::DoNotOptimize(X.data());
  }
  state.counters["n"] = n;
}
BENCHMARK(BM_LA_CholeskySolveMultiRhs)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1000);
