// Substrate benchmark: the QR R-factor that carries the EnKF ensemble-space
// square-root analysis (src/enkf/enkf.cpp). Two questions:
//  - TSQR vs the serial reference Householder chain across the shapes the
//    filter produces (tall-skinny stacked [B; I] at image scale) and two
//    wider panels, where TSQR splits into fewer blocks or none;
//  - the factorization the analysis pays per cycle: TSQR of the stacked
//    image-scale panel across observation counts (BM_QR_Scheme; thread
//    count is recorded so multi-core captures are self-describing).
#include <benchmark/benchmark.h>

#include <string>

#include "la/matrix.h"
#include "la/qr.h"
#include "la/workspace.h"
#include "util/rng.h"

#if defined(WFIRE_HAVE_OPENMP)
#include <omp.h>
#endif

using namespace wfire::la;

namespace {

struct QrShape {
  int m, n;
  const char* tag;
};

// 10025 x 25: the stacked [B; I] of an image-scale ensemble analysis
// (m = 10000 pixels, N = 25 members). 2000 x 64 splits into fewer, wider
// TSQR blocks; 400 x 200 does not split at all (one serial leaf).
const QrShape kShapes[] = {
    {10025, 25, "stacked-ens"}, {2000, 64, "tall"}, {400, 200, "blocky"}};

int omp_threads() {
#if defined(WFIRE_HAVE_OPENMP)
  return omp_get_max_threads();
#else
  return 1;
#endif
}

}  // namespace

// arg 0: shape index; arg 1: 0 = TSQR (R only), 1 = serial reference.
static void BM_QrFactor(benchmark::State& state) {
  const QrShape shape = kShapes[state.range(0)];
  const bool reference = state.range(1) != 0;
  wfire::util::Rng rng(11);
  const Matrix base = Matrix::random_normal(shape.m, shape.n, rng);
  Workspace ws;
  Matrix A = base;
  Vector beta;
  for (auto _ : state) {
    A = base;  // the factorization is in place; restore per iteration
    if (reference)
      qr_factor_in_place(A, beta);
    else
      tsqr_factor_r_in_place(A, &ws);
    benchmark::DoNotOptimize(A.data());
  }
  state.SetLabel(std::string(shape.tag) + "/" +
                 (reference ? "reference" : "tsqr"));
  state.counters["m"] = shape.m;
  state.counters["n"] = shape.n;
  state.counters["blocks"] = tsqr_nblocks(shape.m, shape.n);
  state.counters["threads"] = omp_threads();
}
BENCHMARK(BM_QrFactor)
    ->Unit(benchmark::kMillisecond)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({2, 0})
    ->Args({2, 1});

// The analysis panel: factor the stacked [B; I_N] of an ensemble analysis
// with TSQR at N = 25 and image-scale observation counts. The constant
// arg 1 = 0 keeps the row names gated by bench/ci_baseline_ubuntu.json.
static void BM_QR_Scheme(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  const int N = 25;
  wfire::util::Rng rng(31);
  const Matrix B = Matrix::random_normal(m, N, rng);
  Workspace ws;
  Matrix M(m + N, N);
  for (auto _ : state) {
    for (int k = 0; k < N; ++k) {
      const auto src = B.col(k);
      auto dst = M.col(k);
      for (int i = 0; i < m; ++i) dst[i] = src[i];
      for (int i = 0; i < N; ++i) dst[m + i] = i == k ? 1.0 : 0.0;
    }
    tsqr_factor_r_in_place(M, &ws);
    benchmark::DoNotOptimize(M.data());
  }
  state.counters["m"] = m;
  state.counters["N"] = N;
  state.counters["threads"] = omp_threads();
}
BENCHMARK(BM_QR_Scheme)
    ->Unit(benchmark::kMillisecond)
    ->Args({2000, 0})
    ->Args({10000, 0})
    ->Args({40000, 0});

BENCHMARK_MAIN();
