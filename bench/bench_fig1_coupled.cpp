// Figure 1 reproduction: coupled fire-atmosphere simulation with two line
// ignitions and one circle ignition merging under an ambient wind.
//
// Paper claim: "The fire front on the right ... is slowed down because of
// air being pulled up by the heat created by the fire. This kind of fire
// behavior cannot be modeled by empirical spread models alone."
//
// The harness runs the same scenario twice — two-way coupled and one-way
// (empirical spread under the ambient wind only) — and prints the downwind
// ("right") front position over time. Expected shape: the coupled front
// lags the uncoupled front, increasingly with time. The google-benchmark
// timings measure the cost of one coupled step at the paper's dt = 0.5 s,
// 60 m / 6 m configuration.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "coupling/coupled.h"
#include "levelset/front.h"
#include "util/rng.h"

using namespace wfire;

namespace {

struct Fig1Config {
  int atmos_n = 16;       // 16 x 16 x 8 cells at 60 m -> ~1 km domain
  int atmos_nz = 8;
  double dx = 60.0;
  int refine = 10;        // 6 m fire mesh (paper Sec. 2.3)
  double dt = 0.5;
  double wind = 3.0;      // ambient wind [m/s], +x
  double duration = 360.0;
};

std::vector<levelset::Ignition> fig1_ignitions(double domain) {
  // Two line ignitions and one circle ignition, arranged to merge (Fig. 1).
  const double cx = 0.35 * domain;
  return {
      levelset::Ignition{levelset::LineIgnition{cx - 80, 0.38 * domain,
                                                cx + 40, 0.38 * domain, 8.0,
                                                0.0}},
      levelset::Ignition{levelset::LineIgnition{cx - 80, 0.62 * domain,
                                                cx + 40, 0.62 * domain, 8.0,
                                                0.0}},
      levelset::Ignition{
          levelset::CircleIgnition{cx, 0.5 * domain, 25.0, 0.0}},
  };
}

std::unique_ptr<coupling::CoupledModel> make_model(const Fig1Config& cfg,
                                                   bool two_way) {
  const grid::Grid3D g(cfg.atmos_n, cfg.atmos_n, cfg.atmos_nz, cfg.dx, cfg.dx,
                       cfg.dx);
  atmos::AmbientProfile amb;
  amb.wind_u = cfg.wind;
  coupling::CoupledOptions opt;
  opt.refine = cfg.refine;
  opt.two_way = two_way;
  auto model = std::make_unique<coupling::CoupledModel>(
      g, amb, fire::kFuelShortGrass, opt);
  model->ignite(fig1_ignitions(cfg.atmos_n * cfg.dx));
  return model;
}

// Runs the scenario once and prints the paper-shaped series. Cached so the
// table appears once regardless of benchmark iteration counts.
void print_fig1_series() {
  static bool done = false;
  if (done) return;
  done = true;

  const Fig1Config cfg;
  auto coupled = make_model(cfg, true);
  auto uncoupled = make_model(cfg, false);

  std::printf("\n=== Fig. 1: merging ignitions, coupled vs uncoupled ===\n");
  std::printf("%8s %14s %14s %10s %10s %10s\n", "t[s]", "front_cpl[m]",
              "front_unc[m]", "lag[m]", "max_w[m/s]", "burn[ha]");
  const int steps = static_cast<int>(cfg.duration / cfg.dt);
  const int report_every = static_cast<int>(30.0 / cfg.dt);
  double max_w = 0;
  for (int s = 1; s <= steps; ++s) {
    const coupling::CoupledStepInfo ic = coupled->step(cfg.dt);
    uncoupled->step(cfg.dt);
    max_w = std::max(max_w, ic.atmos.max_w);
    if (s % report_every == 0) {
      const double fc = levelset::rightmost_burning_x(
          coupled->fire_model().grid(), coupled->fire_model().state().psi);
      const double fu = levelset::rightmost_burning_x(
          uncoupled->fire_model().grid(), uncoupled->fire_model().state().psi);
      std::printf("%8.0f %14.1f %14.1f %10.1f %10.2f %10.2f\n", s * cfg.dt,
                  fc, fu, fu - fc, ic.atmos.max_w,
                  coupled->fire_model().burned_area() / 1e4);
    }
  }
  const double fc = levelset::rightmost_burning_x(
      coupled->fire_model().grid(), coupled->fire_model().state().psi);
  const double fu = levelset::rightmost_burning_x(
      uncoupled->fire_model().grid(), uncoupled->fire_model().state().psi);
  std::printf("paper shape check: coupled front lags uncoupled by %.1f m "
              "(%s); fire-induced max updraft %.2f m/s\n\n",
              fu - fc, fu - fc > 0 ? "REPRODUCED" : "NOT reproduced", max_w);
}

}  // namespace

static void BM_Fig1_CoupledStep(benchmark::State& state) {
  print_fig1_series();
  const Fig1Config cfg;
  auto model = make_model(cfg, true);
  double cfl = 0;
  for (auto _ : state) {
    const coupling::CoupledStepInfo info = model->step(cfg.dt);
    cfl = std::max(cfl, std::max(info.fire_cfl, info.atmos.cfl));
    benchmark::DoNotOptimize(info.fire.total_sensible_power);
  }
  state.counters["max_cfl"] = cfl;
  state.counters["fire_nodes"] =
      static_cast<double>(model->fire_model().grid().nx) *
      model->fire_model().grid().ny;
}
BENCHMARK(BM_Fig1_CoupledStep)->Unit(benchmark::kMillisecond);

static void BM_Fig1_UncoupledStep(benchmark::State& state) {
  const Fig1Config cfg;
  auto model = make_model(cfg, false);
  for (auto _ : state) {
    const coupling::CoupledStepInfo info = model->step(cfg.dt);
    benchmark::DoNotOptimize(info.fire.total_sensible_power);
  }
}
BENCHMARK(BM_Fig1_UncoupledStep)->Unit(benchmark::kMillisecond);

static void BM_Fig1_FireStepOnly(benchmark::State& state) {
  const Fig1Config cfg;
  const grid::Grid2D g(cfg.atmos_n * cfg.refine, cfg.atmos_n * cfg.refine,
                       cfg.dx / cfg.refine, cfg.dx / cfg.refine);
  fire::FireModel model(g, fire::uniform_fuel(g.nx, g.ny,
                                              fire::kFuelShortGrass),
                        fire::terrain_flat(g));
  model.ignite(fig1_ignitions(cfg.atmos_n * cfg.dx));
  for (auto _ : state) {
    const fire::FireOutputs out = model.step_uniform_wind(cfg.dt, cfg.wind, 0);
    benchmark::DoNotOptimize(out.total_sensible_power);
  }
}
BENCHMARK(BM_Fig1_FireStepOnly)->Unit(benchmark::kMillisecond);

// Ensemble coupled advance: one assimilation window of N members' coupled
// fire-atmosphere steps, stepping each CoupledModel in turn. Arguments:
// (members, band_cells, two_way, batched). Only the per-member loop
// exists, so band_cells and batched are fixed at (8, 0); they stay in the
// argument list so the row keeps the name the CI baseline gates on.
static void BM_Coupled_Advance(benchmark::State& state) {
  const int members = static_cast<int>(state.range(0));
  const bool two_way = state.range(2) != 0;
  const Fig1Config cfg;
  const double window = 5.0;  // simulated seconds per iteration

  const grid::Grid3D g(cfg.atmos_n, cfg.atmos_n, cfg.atmos_nz, cfg.dx,
                       cfg.dx, cfg.dx);
  atmos::AmbientProfile amb;
  amb.wind_u = cfg.wind;
  coupling::CoupledOptions copt;
  copt.refine = cfg.refine;
  copt.two_way = two_way;
  const double domain = cfg.atmos_n * cfg.dx;
  const int fn = cfg.atmos_n * cfg.refine;
  const fire::FuelMap fuel =
      fire::uniform_fuel(fn, fn, fire::kFuelShortGrass);

  std::vector<std::unique_ptr<coupling::CoupledModel>> models;
  util::Rng rng(31);
  for (int k = 0; k < members; ++k) {
    auto m = std::make_unique<coupling::CoupledModel>(
        g, amb, fuel, util::Array2D<double>(fn, fn, 0.0), copt);
    m->ignite({levelset::Ignition{levelset::CircleIgnition{
        0.35 * domain + rng.normal(0.0, 20.0),
        0.5 * domain + rng.normal(0.0, 20.0), 25.0, 0.0}}});
    models.push_back(std::move(m));
  }

  coupling::CoupledStepInfo info;
  double t = 0;
  for (auto _ : state) {
    t += window;
    while (models[0]->time() < t - 1e-9)
      for (auto& m : models) m->step(cfg.dt, info);
  }
  state.counters["members"] = members;
  state.counters["two_way"] = two_way ? 1 : 0;
}
BENCHMARK(BM_Coupled_Advance)
    ->Unit(benchmark::kMillisecond)
    ->Args({16, 8, 1, 0})
    ->Iterations(1);

BENCHMARK_MAIN();
