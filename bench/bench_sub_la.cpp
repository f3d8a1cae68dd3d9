// Substrate benchmark: the blocked gemm against its naive oracle
// (la/reference.h), at square and analysis-update shapes, so BENCH_*.json
// tracks where a regression comes from. The last argument of each row picks
// the implementation: 0 = blocked (production), 1 = reference (the oracle);
// the row label names it.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "la/blas.h"
#include "la/reference.h"
#include "util/rng.h"

using namespace wfire::la;
using wfire::util::Rng;

namespace {

const char* impl_name(std::int64_t v) {
  return v == 0 ? "blocked" : "reference";
}

}  // namespace

static void BM_LA_GemmSquare(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::int64_t be = state.range(1);
  Rng rng(1);
  const Matrix A = Matrix::random_normal(n, n, rng);
  const Matrix B = Matrix::random_normal(n, n, rng);
  Matrix C(n, n, 0.0);
  for (auto _ : state) {
    if (be == 0)
      gemm(false, false, 1.0, A, B, 0.0, C);
    else
      reference::gemm(false, false, 1.0, A, B, 0.0, C);
    benchmark::DoNotOptimize(C.data());
  }
  state.SetLabel(impl_name(be));
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
  for (auto _ : state) {
    if (be == 0)
      gemm(false, false, 1.0, A, W, 1.0, X);
    else
      reference::gemm(false, false, 1.0, A, W, 1.0, X);
    benchmark::DoNotOptimize(X.data());
  }
  state.SetLabel(impl_name(be));
  state.counters["n"] = n;
}
BENCHMARK(BM_LA_GemmTallSkinny)
    ->Unit(benchmark::kMillisecond)
    ->Args({20000, 0})
    ->Args({20000, 1});
