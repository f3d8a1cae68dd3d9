// Monte Carlo burn-probability products end to end: a twin-experiment
// "truth" fire supplies the reference burn; a K-member sweep of Gaussian
// perturbations around a deliberately wind-biased analyst spec runs as one
// batched ensemble and reduces into a per-cell burn-probability grid; the
// product cache serves a repeat fetch of the same product without
// re-simulating; and the thresholded surface is validated against the
// reference burn with precision / recall / F1.
//
// The product is bitwise-reproducible: the same (base spec, perturbation)
// at any OpenMP width yields the identical grid, which the demo verifies by
// re-running the sweep at width 1.
//
// Run:  ./burn_probability_demo [members=64] [minutes=4] [threads=4]
#include <cmath>
#include <cstdio>
#include <memory>

#include "core/data_pool.h"
#include "fire/terrain.h"
#include "risk/product_cache.h"
#include "risk/sweep.h"
#include "util/config.h"

int main(int argc, char** argv) {
  using namespace wfire;
  const util::Config cfg = util::Config::from_args(argc, argv);
  const int members = cfg.get_int("members", 64);
  const double horizon = cfg.get_double("minutes", 4.0) * 60.0;
  const int threads = cfg.get_int("threads", 4);

  // --- The hidden truth (paper Fig. 2 twin-experiment regime): a grass
  // fire under a steady wind the analyst does not know exactly.
  const grid::Grid2D g(41, 41, 6.0, 6.0);
  auto truth_model = std::make_unique<fire::FireModel>(
      g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
      fire::terrain_flat(g));
  truth_model->ignite(
      {levelset::Ignition{levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}});
  core::DataPoolOptions dopt;
  dopt.wind_u = 2.0;
  dopt.wind_v = 0.5;
  core::DataPool pool(std::move(truth_model), dopt, util::Rng(3));
  (void)pool.observe_at(horizon);
  const util::Array2D<double>& ref_tig = *pool.truth_tig();

  // --- The analyst's base spec: same ignition, wind biased by ~0.35 m/s.
  serve::ScenarioSpec base;
  base.nx = 41;
  base.ny = 41;
  base.dx = base.dy = 6.0;
  base.dt = 0.5;
  base.wind_u = 2.3;
  base.wind_v = 0.3;
  base.ignitions = {
      levelset::Ignition{levelset::CircleIgnition{120.0, 120.0, 20.0, 0.0}}};

  risk::PerturbationSpec pert;
  pert.wind_speed_sigma = 0.4;   // [m/s]
  pert.wind_dir_sigma = 0.15;    // [rad]
  pert.moisture_sigma = 0.1;     // lognormal
  pert.burn_time_sigma = 0.1;    // lognormal
  pert.ignition_jitter = 3.0;    // [m]
  pert.seed = 2026;

  risk::SweepOptions opt;
  opt.members = members;
  opt.horizon = horizon;
  opt.threads = threads;

  // --- First fetch computes (one batched sweep);
  // the second is served from the cache without touching a fire model.
  risk::ProductCache cache;
  const auto product = cache.fetch(base, pert, opt);
  const auto again = cache.fetch(base, pert, opt);
  std::printf(
      "product %016llx: K=%d members to t=%.0f s on %d threads "
      "(cache: %ld sweep, %ld hit; repeat fetch %s)\n",
      static_cast<unsigned long long>(product->key), members, horizon,
      threads, cache.sweeps_run(), cache.hits(),
      again.get() == product.get() ? "returned the same grid" : "MISMATCH");

  // --- The probability surface vs the reference burn.
  const risk::Scores s = risk::score(*product, 0.5, ref_tig, horizon);
  const double expected_ha = product->expected_burned_area() / 1e4;
  const util::Array2D<double> median_arrival = product->arrival_quantile(0.5);
  double truth_ha = 0;
  for (const double t : ref_tig)
    if (t <= horizon) truth_ha += g.dx * g.dy / 1e4;
  std::printf(
      "expected burned area %.3f ha (truth %.3f ha); at threshold 0.5: "
      "precision %.3f recall %.3f F1 %.3f (tp %ld fp %ld fn %ld)\n",
      expected_ha, truth_ha, s.precision, s.recall, s.f1, s.tp, s.fp, s.fn);
  const double t_med = median_arrival(g.nx / 2, g.ny / 2);
  if (std::isfinite(t_med))
    std::printf("median arrival at domain center: %.1f s\n", t_med);

  // --- The reproducibility contract, demonstrated: the identical product
  // from the opposite execution regime (one thread).
  risk::SweepOptions solo = opt;
  solo.threads = 1;
  risk::SweepDriver driver(base, pert, solo);
  const risk::BurnProbabilityGrid alt = driver.run();
  const bool invariant = alt.probability == product->probability &&
                         alt.arrivals == product->arrivals &&
                         alt.key == product->key;
  std::printf("width invariance (x1 vs team x%d): %s\n",
              threads, invariant ? "bitwise identical" : "DIVERGED");

  // Machine-readable summary for the golden-value smoke check. Every key is
  // deterministic: the sweep is a pure function of (base, perturbation).
  std::printf("SMOKE f1=%.6f\n", s.f1);
  std::printf("SMOKE precision=%.6f\n", s.precision);
  std::printf("SMOKE recall=%.6f\n", s.recall);
  std::printf("SMOKE expected_burned_ha=%.6f\n", expected_ha);
  std::printf("SMOKE cache_hits=%ld\n", cache.hits());
  std::printf("SMOKE cache_sweeps=%ld\n", cache.sweeps_run());
  std::printf("SMOKE pool_invariant=%d\n", invariant ? 1 : 0);
  return 0;
}
