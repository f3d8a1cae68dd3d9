// Ablation (Sec. 3.3): cost and accuracy of the automatic registration
// problem  ||u - u0 o (I+T)|| + ||T|| + ||grad T|| -> min  that underlies
// the morphing EnKF.
//
// Expected shapes: cost scales ~linearly with pixels (multiscale); recovery
// error stays subpixel-to-pixel for displacements up to a third of the
// domain; removing pyramid levels breaks large-displacement recovery.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "morphing/morph.h"
#include "morphing/registration.h"

using namespace wfire;
using namespace wfire::morphing;

namespace {

util::Array2D<double> fire_like_blob(int n, double cx, double cy) {
  // An elongated anisotropic "fireline" feature, harder than a disc.
  util::Array2D<double> u(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      const double dx = (i - cx) / (0.12 * n);
      const double dy = (j - cy) / (0.05 * n);
      u(i, j) = 1e4 * std::exp(-0.5 * (dx * dx + dy * dy));
    }
  return u;
}

struct RecoveryRow {
  double shift;
  double err;
  double data_term;
  int iterations;
};

RecoveryRow recovery_at_shift(int n, double shift, int max_levels) {
  const util::Array2D<double> u0 = fire_like_blob(n, n / 2.0, n / 2.0);
  const util::Array2D<double> u =
      fire_like_blob(n, n / 2.0 - shift, n / 2.0 - 0.4 * shift);
  RegistrationOptions opt;
  opt.max_levels = max_levels;
  const RegistrationResult res = register_fields(u, u0, opt);
  // Gradient-weighted displacement estimate over the feature support.
  double wx = 0, wy = 0, wsum = 0;
  for (int j = 1; j < n - 1; ++j)
    for (int i = 1; i < n - 1; ++i) {
      const double g = std::abs(u(i + 1, j) - u(i - 1, j)) +
                       std::abs(u(i, j + 1) - u(i, j - 1));
      wx += g * res.T.tx(i, j);
      wy += g * res.T.ty(i, j);
      wsum += g;
    }
  RecoveryRow row;
  row.shift = shift;
  row.err = wsum > 0 ? std::hypot(wx / wsum - shift, wy / wsum - 0.4 * shift)
                     : 1e9;
  row.data_term = res.data_term;
  row.iterations = res.iterations;
  return row;
}

void print_registration_table() {
  static bool done = false;
  if (done) return;
  done = true;

  const int n = 128;
  std::printf("\n=== Ablation: registration recovery (%dx%d fireline "
              "feature) ===\n", n, n);
  std::printf("%10s %12s %14s %8s\n", "shift[px]", "err[px]", "data_term",
              "iters");
  for (const double s : {2.0, 5.0, 10.0, 20.0, 40.0}) {
    const RecoveryRow row = recovery_at_shift(n, s, 6);
    std::printf("%10.1f %12.2f %14.4g %8d\n", row.shift, row.err,
                row.data_term, row.iterations);
  }
  // The coarse-level exhaustive shift search anchors large displacements;
  // the pyramid then refines at a fraction of the single-level search cost
  // (the search is O(range^2 * pixels), so running it at the coarsest level
  // is ~256x cheaper than at full resolution for the same physical range).
  const RecoveryRow multi = recovery_at_shift(n, 20.0, 6);
  const RecoveryRow single = recovery_at_shift(n, 20.0, 1);
  std::printf("20 px recovery, multiscale %.2f px vs single-level %.2f px\n\n",
              multi.err, single.err);
}

}  // namespace

static void BM_Registration_GridSize(benchmark::State& state) {
  print_registration_table();
  const int n = static_cast<int>(state.range(0));
  const util::Array2D<double> u0 = fire_like_blob(n, n / 2.0, n / 2.0);
  const util::Array2D<double> u = fire_like_blob(n, n / 2.0 - 0.1 * n,
                                                 n / 2.0 - 0.05 * n);
  for (auto _ : state) {
    const RegistrationResult res = register_fields(u, u0, {});
    benchmark::DoNotOptimize(res.objective);
  }
  state.counters["pixels"] = static_cast<double>(n) * n;
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n) * n);
}
BENCHMARK(BM_Registration_GridSize)
    ->Unit(benchmark::kMillisecond)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256);

static void BM_Registration_MorphEncodeDecode(benchmark::State& state) {
  const int n = 128;
  const util::Array2D<double> u0 = fire_like_blob(n, n / 2.0, n / 2.0);
  const util::Array2D<double> u =
      fire_like_blob(n, n / 2.0 - 12.0, n / 2.0 - 5.0);
  util::Array2D<double> r(n, n), back;
  for (auto _ : state) {
    const RegistrationResult reg = register_fields(u, u0, {});
    morph_residual(u, u0, invert(reg.T), r.span());
    morph_decode(u0, r.span(), reg.T, back);
    benchmark::DoNotOptimize(back.data());
  }
}
BENCHMARK(BM_Registration_MorphEncodeDecode)->Unit(benchmark::kMillisecond);

static void BM_Registration_Invert(benchmark::State& state) {
  const int n = 128;
  Mapping T(n, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      T.tx(i, j) = 6.0 * std::sin(2 * M_PI * j / n);
      T.ty(i, j) = 4.0 * std::cos(2 * M_PI * i / n);
    }
  for (auto _ : state) {
    const Mapping inv = invert(T);
    benchmark::DoNotOptimize(inv.tx.data());
  }
  state.counters["inverse_err_px"] = inverse_error(T, invert(T));
}
BENCHMARK(BM_Registration_Invert)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
