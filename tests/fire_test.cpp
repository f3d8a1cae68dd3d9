// Fire physics tests: the spread law (clipping, wind/slope response), fuel
// catalog sanity, terrain gradients, mass-loss/heat-flux accounting in the
// FireModel, and ignition-time tracking.
#include <gtest/gtest.h>

#include <cmath>

#include "fire/fuel.h"
#include "fire/model.h"
#include "fire/spread.h"
#include "fire/terrain.h"

using namespace wfire::fire;
using wfire::grid::Grid2D;
using wfire::levelset::CircleIgnition;
using wfire::levelset::Ignition;
using wfire::util::Array2D;

namespace {
Grid2D fire_grid() { return Grid2D(81, 81, 6.0, 6.0); }  // 480 m, paper's 6 m
}  // namespace

TEST(Fuel, CatalogHasThirteenValidCategories) {
  const auto& cat = fuel_catalog();
  ASSERT_EQ(cat.size(), 13u);
  for (const auto& f : cat) {
    EXPECT_GT(f.R0, 0.0) << f.name;
    EXPECT_GT(f.a, 0.0) << f.name;
    EXPECT_GE(f.b, 1.0) << f.name;
    EXPECT_GT(f.Smax, f.R0) << f.name;
    EXPECT_GT(f.w0, 0.0) << f.name;
    EXPECT_GT(f.tau, 0.0) << f.name;
    EXPECT_GT(f.h, 1.0e7) << f.name;
    EXPECT_GT(f.latent_fraction, 0.0) << f.name;
    EXPECT_LT(f.latent_fraction, 1.0) << f.name;
  }
}

TEST(Fuel, GrassBurnsFasterThanTimber) {
  const FuelCategory& grass = fuel_catalog()[kFuelShortGrass];
  const FuelCategory& timber = fuel_catalog()[kFuelClosedTimberLitter];
  EXPECT_LT(grass.tau, timber.tau);   // "rapid mass loss in grass"
  EXPECT_GT(spread_rate(grass, 5.0, 0.0), spread_rate(timber, 5.0, 0.0));
}

TEST(Fuel, UniformMapCoversGrid) {
  const FuelMap m = uniform_fuel(10, 12, kFuelBrush);
  EXPECT_EQ(m.index.nx(), 10);
  EXPECT_EQ(m.index.ny(), 12);
  EXPECT_EQ(m.at(5, 5)->name, "brush");
  EXPECT_THROW(uniform_fuel(4, 4, 99), std::invalid_argument);
}

// Property sweep across the full catalog: every fuel category obeys the
// spread law's structural invariants.
class FuelCategoryParam : public ::testing::TestWithParam<int> {};

TEST_P(FuelCategoryParam, SpreadLawInvariants) {
  const FuelCategory& f = fuel_catalog()[GetParam()];
  // Base rate with no forcing.
  EXPECT_DOUBLE_EQ(spread_rate(f, 0.0, 0.0), f.R0);
  // Monotone in wind, clipped at Smax, never negative.
  double prev = 0;
  for (double v = 0; v <= 40.0; v += 2.0) {
    const double s = spread_rate(f, v, 0.0);
    EXPECT_GE(s, prev) << f.name;
    EXPECT_LE(s, f.Smax) << f.name;
    prev = s;
  }
  EXPECT_DOUBLE_EQ(spread_rate(f, 1000.0, 0.0), f.Smax);
  EXPECT_GE(spread_rate(f, 0.0, -100.0), 0.0);
  // Upslope >= flat >= downslope at fixed wind.
  EXPECT_GE(spread_rate(f, 2.0, 0.4), spread_rate(f, 2.0, 0.0));
  EXPECT_GE(spread_rate(f, 2.0, 0.0), spread_rate(f, 2.0, -0.4));
}

TEST_P(FuelCategoryParam, HeatFluxAccountingPerCategory) {
  // One burning node releases w0*h in total; the split between sensible and
  // latent matches the category's latent fraction at every step.
  const FuelCategory& f = fuel_catalog()[GetParam()];
  const Grid2D g(11, 11, 6.0, 6.0);
  FireModel model(g, uniform_fuel(g.nx, g.ny, GetParam()), terrain_flat(g));
  model.ignite({Ignition{CircleIgnition{30.0, 30.0, 10.0, 0.0}}});
  const FireOutputs out = model.step_uniform_wind(0.5, 0.0, 0.0);
  ASSERT_GT(out.total_sensible_power, 0.0) << f.name;
  const double ratio =
      out.total_latent_power /
      (out.total_latent_power + out.total_sensible_power);
  EXPECT_NEAR(ratio, f.latent_fraction, 1e-9) << f.name;
}

INSTANTIATE_TEST_SUITE_P(AllCategories, FuelCategoryParam,
                         ::testing::Range(0, 13));

TEST(Spread, NoWindNoSlopeGivesR0) {
  const FuelCategory& f = fuel_catalog()[kFuelShortGrass];
  EXPECT_DOUBLE_EQ(spread_rate(f, 0.0, 0.0), f.R0);
}

TEST(Spread, HeadFireFasterThanBacking) {
  const FuelCategory& f = fuel_catalog()[kFuelShortGrass];
  const double head = spread_rate(f, 5.0, 0.0);
  const double backing = spread_rate(f, -5.0, 0.0);
  EXPECT_GT(head, backing);
  EXPECT_DOUBLE_EQ(backing, f.R0);  // wind term clipped at zero
}

TEST(Spread, MonotoneInWind) {
  const FuelCategory& f = fuel_catalog()[kFuelTallGrass];
  double prev = 0;
  for (double v = 0; v <= 10.0; v += 1.0) {
    const double s = spread_rate(f, v, 0.0);
    EXPECT_GE(s, prev);
    prev = s;
  }
}

TEST(Spread, ClippedAtSmax) {
  const FuelCategory& f = fuel_catalog()[kFuelShortGrass];
  EXPECT_DOUBLE_EQ(spread_rate(f, 100.0, 0.0), f.Smax);
}

TEST(Spread, UpslopeFasterThanDownslope) {
  const FuelCategory& f = fuel_catalog()[kFuelChaparral];
  EXPECT_GT(spread_rate(f, 0.0, 0.3), spread_rate(f, 0.0, -0.3));
}

TEST(Spread, NeverNegative) {
  const FuelCategory& f = fuel_catalog()[kFuelClosedTimberLitter];
  EXPECT_GE(spread_rate(f, 0.0, -10.0), 0.0);
}

TEST(SpreadField, FirebreakStopsSpread) {
  const Grid2D g = fire_grid();
  FuelMap fuel = uniform_fuel(g.nx, g.ny, kFuelShortGrass);
  for (int j = 0; j < g.ny; ++j) fuel.index(40, j) = -1;  // firebreak column

  Array2D<double> psi;
  wfire::levelset::initialize_signed_distance(
      g, {Ignition{CircleIgnition{240.0, 240.0, 30.0, 0.0}}}, psi);
  Array2D<double> wind_u(g.nx, g.ny, 0.0), wind_v(g.nx, g.ny, 0.0);
  Array2D<double> frac(g.nx, g.ny, 1.0), speed;
  SpreadInputs in;
  in.wind_u = &wind_u;
  in.wind_v = &wind_v;
  spread_field(g, psi, fuel, in, frac, 0.02, speed);
  for (int j = 0; j < g.ny; ++j) EXPECT_DOUBLE_EQ(speed(40, j), 0.0);
  EXPECT_GT(speed(41, 40), 0.0);
}

TEST(Terrain, SlopeGradientExact) {
  const Grid2D g = fire_grid();
  const Array2D<double> z = terrain_slope(g, 0.1, -0.05);
  Array2D<double> dzdx, dzdy;
  terrain_gradient(g, z, dzdx, dzdy);
  for (int j = 0; j < g.ny; j += 13)
    for (int i = 0; i < g.nx; i += 13) {
      EXPECT_NEAR(dzdx(i, j), 0.1, 1e-10);
      EXPECT_NEAR(dzdy(i, j), -0.05, 1e-10);
    }
}

TEST(FireModel, IgnitionSetsStateAndBurnsOutward) {
  const Grid2D g = fire_grid();
  FireModel model(g, uniform_fuel(g.nx, g.ny, kFuelShortGrass),
                  terrain_flat(g));
  model.ignite({Ignition{CircleIgnition{240.0, 240.0, 30.0, 0.0}}});
  const double area0 = model.burned_area();
  EXPECT_NEAR(area0, M_PI * 900.0, 150.0);

  for (int s = 0; s < 60; ++s) model.step_uniform_wind(0.5, 3.0, 0.0);
  EXPECT_GT(model.burned_area(), area0);
  EXPECT_NEAR(model.state().time, 30.0, 1e-9);
}

TEST(FireModel, IgnitionTimesAreMonotoneOutward) {
  const Grid2D g = fire_grid();
  FireModel model(g, uniform_fuel(g.nx, g.ny, kFuelShortGrass),
                  terrain_flat(g));
  model.ignite({Ignition{CircleIgnition{240.0, 240.0, 30.0, 0.0}}});
  // Wind pushes the downwind front well past the initial circle.
  for (int s = 0; s < 200; ++s) model.step_uniform_wind(0.5, 5.0, 0.0);

  // Along the +x ray downwind of the initial circle, tig increases.
  double prev = -1;
  for (int i = 46; i < g.nx; ++i) {
    const double ti = model.state().tig(i, 40);
    if (ti == kNotIgnited) break;
    EXPECT_GE(ti, prev);
    prev = ti;
  }
  EXPECT_GT(prev, 0.0);  // the front did reach new nodes
}

TEST(FireModel, HeatFluxOnlyWhereBurning) {
  const Grid2D g = fire_grid();
  FireModel model(g, uniform_fuel(g.nx, g.ny, kFuelShortGrass),
                  terrain_flat(g));
  model.ignite({Ignition{CircleIgnition{240.0, 240.0, 30.0, 0.0}}});
  const FireOutputs out = model.step_uniform_wind(0.5, 0.0, 0.0);
  EXPECT_GT(out.total_sensible_power, 0.0);
  EXPECT_GT(out.total_latent_power, 0.0);
  // Far corner never burned: zero flux.
  EXPECT_DOUBLE_EQ(out.sensible_flux(0, 0), 0.0);
  // Flux at the original ignition center is positive (still burning).
  EXPECT_GT(out.sensible_flux(40, 40), 0.0);
}

TEST(FireModel, EnergyConservedAgainstFuelLoad) {
  // Total energy released over a long run approaches w0 * h * burned area
  // (for cells that burned early and completed their mass loss).
  const Grid2D g(41, 41, 6.0, 6.0);
  FireModel model(g, uniform_fuel(g.nx, g.ny, kFuelShortGrass),
                  terrain_flat(g));
  const FuelCategory& f = fuel_catalog()[kFuelShortGrass];
  model.ignite({Ignition{CircleIgnition{120.0, 120.0, 40.0, 0.0}}});

  double released = 0;  // [J]
  const double dt = 0.5;
  // No wind, R0 only: front moves slowly; most energy comes from the
  // initial disc, which has fully burned after ~10 tau.
  for (int s = 0; s < 400; ++s) {
    const FireOutputs out = model.step_uniform_wind(dt, 0.0, 0.0);
    released += (out.total_sensible_power + out.total_latent_power) * dt;
  }
  const double burned = model.burned_area();
  const double expected_cap = burned * f.w0 * f.h;
  EXPECT_LT(released, expected_cap * 1.05);
  EXPECT_GT(released, expected_cap * 0.5);
}

TEST(FireModel, DelayedIgnitionActivatesOnTime) {
  const Grid2D g = fire_grid();
  FireModel model(g, uniform_fuel(g.nx, g.ny, kFuelShortGrass),
                  terrain_flat(g));
  model.ignite({Ignition{CircleIgnition{120.0, 120.0, 20.0, 0.0}},
                Ignition{CircleIgnition{360.0, 360.0, 20.0, 10.0}}});
  // Before t=10 only the first circle burns.
  for (int s = 0; s < 10; ++s) model.step_uniform_wind(0.5, 0.0, 0.0);
  EXPECT_GT(model.state().psi(60, 60), 0.0);
  for (int s = 0; s < 12; ++s) model.step_uniform_wind(0.5, 0.0, 0.0);
  EXPECT_LT(model.state().psi(60, 60), 0.0);
  EXPECT_GE(model.state().tig(60, 60), 10.0);
}

TEST(FireModel, WindAdvancesDownwindFrontFaster) {
  const Grid2D g = fire_grid();
  FireModel model(g, uniform_fuel(g.nx, g.ny, kFuelShortGrass),
                  terrain_flat(g));
  model.ignite({Ignition{CircleIgnition{240.0, 240.0, 30.0, 0.0}}});
  for (int s = 0; s < 120; ++s) model.step_uniform_wind(0.5, 5.0, 0.0);
  const auto& psi = model.state().psi;
  // Downwind (+x) extent exceeds upwind extent.
  double right = 0, left = 0;
  for (int i = 40; i < g.nx; ++i)
    if (psi(i, 40) < 0) right = g.x(i) - 240.0;
  for (int i = 40; i >= 0; --i)
    if (psi(i, 40) < 0) left = 240.0 - g.x(i);
  EXPECT_GT(right, left * 1.5);
}

TEST(FireModel, SetStateRecomputesFuelFraction) {
  const Grid2D g(21, 21, 6.0, 6.0);
  FireModel model(g, uniform_fuel(g.nx, g.ny, kFuelShortGrass),
                  terrain_flat(g));
  FireState s;
  s.psi = wfire::util::Array2D<double>(g.nx, g.ny, 10.0);
  s.tig = wfire::util::Array2D<double>(g.nx, g.ny, kNotIgnited);
  s.time = 100.0;
  s.psi(10, 10) = -5.0;
  s.tig(10, 10) = 0.0;  // burned since t = 0
  model.set_state(s);
  const FuelCategory& f = fuel_catalog()[kFuelShortGrass];
  EXPECT_NEAR(model.fuel_fraction()(10, 10), std::exp(-100.0 / f.tau), 1e-12);
  EXPECT_DOUBLE_EQ(model.fuel_fraction()(0, 0), 1.0);
}

TEST(FireModel, RejectsBadInputs) {
  const Grid2D g(21, 21, 6.0, 6.0);
  EXPECT_THROW(FireModel(g, uniform_fuel(10, 10, 0), terrain_flat(g)),
               std::invalid_argument);
  FireModel model(g, uniform_fuel(g.nx, g.ny, 0), terrain_flat(g));
  EXPECT_THROW(model.step_uniform_wind(-1.0, 0, 0), std::invalid_argument);
}

TEST(FireModel, EulerOptionUnderburnsVsHeun) {
  // End-to-end version of the paper's Sec. 2.2 claim through FireModel.
  const Grid2D g = fire_grid();
  FireModelOptions heun_opt, euler_opt;
  euler_opt.use_heun = false;
  FireModel heun(g, uniform_fuel(g.nx, g.ny, kFuelShortGrass),
                 terrain_flat(g), heun_opt);
  FireModel euler(g, uniform_fuel(g.nx, g.ny, kFuelShortGrass),
                  terrain_flat(g), euler_opt);
  const std::vector<Ignition> ign{
      Ignition{CircleIgnition{240.0, 240.0, 30.0, 0.0}}};
  heun.ignite(ign);
  euler.ignite(ign);
  // Strong wind pushes the CFL toward its limit where the Euler bias shows.
  for (int s = 0; s < 150; ++s) {
    heun.step_uniform_wind(1.5, 8.0, 0.0);
    euler.step_uniform_wind(1.5, 8.0, 0.0);
  }
  EXPECT_LT(euler.burned_area(), heun.burned_area());
}
