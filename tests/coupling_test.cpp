// Coupling tests: exponential-decay flux insertion (energy conservation,
// profile shape), wind sampling onto the fire mesh, flux aggregation
// conservation, and the coupled model's two-way feedback.
#include <gtest/gtest.h>

#include <cmath>

#include "coupling/coupled.h"
#include "coupling/flux_insertion.h"
#include "coupling/wind_sample.h"
#include "util/rng.h"

using namespace wfire;
using namespace wfire::coupling;
using wfire::grid::Grid3D;

TEST(FluxInsertion, WeightsAreNormalizedAndDecay) {
  const Grid3D g(4, 4, 12, 60.0, 60.0, 50.0);
  FluxInserter ins(g);
  const auto& w = ins.weights();
  ASSERT_EQ(w.size(), 12u);
  double sum = 0;
  for (std::size_t k = 0; k < w.size(); ++k) {
    sum += w[k] * g.dz;
    if (k > 0) {
      EXPECT_LT(w[k], w[k - 1]);  // monotone decay with height
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // e-folding: w(z + h) / w(z) = exp(-dz/h).
  EXPECT_NEAR(w[1] / w[0], std::exp(-g.dz / ins.params().decay_height), 1e-12);
}

TEST(FluxInsertion, ColumnEnergyMatchesSurfaceFlux) {
  const Grid3D g(4, 4, 10, 60.0, 60.0, 50.0);
  const FluxInsertionParams p;
  FluxInserter ins(g, p);
  util::Array2D<double> sens(4, 4, 0.0), lat(4, 4, 0.0);
  sens(2, 2) = 50000.0;  // 50 kW/m^2
  lat(2, 2) = 10000.0;
  util::Array3D<double> th, qv;
  ins.insert(sens, lat, th, qv);
  // Column integral of rho cp dtheta/dt dz equals the surface flux.
  double col = 0, colq = 0;
  for (int k = 0; k < g.nz; ++k) {
    col += p.rho * p.cp * th(2, 2, k) * g.dz;
    colq += p.rho * p.Lv * qv(2, 2, k) * g.dz;
  }
  EXPECT_NEAR(col, 50000.0, 1e-6);
  EXPECT_NEAR(colq, 10000.0, 1e-8);
  // Unheated columns stay zero.
  EXPECT_DOUBLE_EQ(th(0, 0, 0), 0.0);
}

TEST(FluxInsertion, SingleCellPutsAllEnergyInLowestCell) {
  const Grid3D g(4, 4, 10, 60.0, 60.0, 50.0);
  const FluxInsertionParams p;
  util::Array2D<double> sens(4, 4, 20000.0), lat(4, 4, 0.0);
  util::Array3D<double> th, qv;
  insert_single_cell(g, p, sens, lat, th, qv);
  EXPECT_NEAR(p.rho * p.cp * th(1, 1, 0) * g.dz, 20000.0, 1e-8);
  EXPECT_DOUBLE_EQ(th(1, 1, 1), 0.0);
}

TEST(FluxInsertion, RejectsBadShapes) {
  const Grid3D g(4, 4, 10, 60.0, 60.0, 50.0);
  FluxInserter ins(g);
  util::Array2D<double> wrong(3, 4, 0.0), lat(4, 4, 0.0);
  util::Array3D<double> th, qv;
  EXPECT_THROW(ins.insert(wrong, lat, th, qv), std::invalid_argument);
  EXPECT_THROW(FluxInserter(g, FluxInsertionParams{.decay_height = -1}),
               std::invalid_argument);
}

TEST(MeshPairing, GeometryMatchesPaperRatio) {
  const Grid3D g(8, 8, 6, 60.0, 60.0, 60.0);
  const MeshPairing pair = make_pairing(g, 10);
  EXPECT_EQ(pair.fire.nx, 80);
  EXPECT_DOUBLE_EQ(pair.fire.dx, 6.0);  // the paper's 6 m fire mesh
  EXPECT_DOUBLE_EQ(pair.atmos_hor.dx, 60.0);
  // Fire node (0,0) sits at the first atmos cell center.
  EXPECT_DOUBLE_EQ(pair.fire.x0, 30.0);
  EXPECT_THROW((void)make_pairing(g, 0), std::invalid_argument);
}

TEST(WindSample, UniformWindSamplesExactly) {
  const Grid3D g(8, 8, 6, 60.0, 60.0, 60.0);
  atmos::AmbientProfile amb;
  amb.wind_u = 4.0;
  amb.wind_v = -2.0;
  atmos::AtmosState s;
  atmos::initialize_ambient(g, amb, s);
  const MeshPairing pair = make_pairing(g, 10);
  util::Array2D<double> fu, fv;
  sample_ground_wind(g, s, pair, fu, fv);
  const double prof = amb.wind_profile(g.zc(0));
  for (int j = 0; j < pair.fire.ny; j += 17)
    for (int i = 0; i < pair.fire.nx; i += 17) {
      EXPECT_NEAR(fu(i, j), 4.0 * prof, 1e-12);
      EXPECT_NEAR(fv(i, j), -2.0 * prof, 1e-12);
    }
}

TEST(AggregateFlux, ConservesTotalPower) {
  const Grid3D g(8, 8, 6, 60.0, 60.0, 60.0);
  const MeshPairing pair = make_pairing(g, 10);
  util::Array2D<double> fine(pair.fire.nx, pair.fire.ny, 0.0);
  util::Rng rng(3);
  for (auto& v : fine) v = rng.uniform(0.0, 1e5);
  util::Array2D<double> coarse(g.nx, g.ny);
  aggregate_flux(pair, fine, coarse);
  // Block average conserves the mean flux density -> same total power.
  EXPECT_NEAR(util::sum(coarse) * 60.0 * 60.0, util::sum(fine) * 6.0 * 6.0,
              1.0);
}

TEST(CoupledModel, RunsStablyAtPaperConfiguration) {
  // Small version of the paper's reference setup: dt = 0.5 s, 60 m / 6 m.
  const Grid3D g(12, 12, 6, 60.0, 60.0, 60.0);
  atmos::AmbientProfile amb;
  amb.wind_u = 3.0;
  CoupledOptions opt;
  opt.refine = 10;
  CoupledModel model(g, amb, fire::kFuelShortGrass, opt);
  model.ignite({levelset::Ignition{
      levelset::CircleIgnition{360.0, 360.0, 30.0, 0.0}}});

  double burned_prev = model.fire_model().burned_area();
  for (int s = 0; s < 60; ++s) {
    const CoupledStepInfo info = model.step(0.5);
    EXPECT_LT(info.fire_cfl, 1.0);
    EXPECT_LT(info.atmos.cfl, 1.0);
    EXPECT_LT(info.atmos.max_div_after, 1e-4);
  }
  EXPECT_GT(model.fire_model().burned_area(), burned_prev);
  // The fire has created an updraft somewhere.
  EXPECT_GT(util::max_abs(model.atmosphere().state().w), 0.05);
}

TEST(CoupledModel, TwoWayCouplingChangesFireBehavior) {
  // Fig. 1's qualitative claim, in miniature: with two-way coupling the
  // fire-induced indraft modifies the near-fire wind, so the burned area
  // differs from the one-way run with identical setup.
  const Grid3D g(12, 12, 6, 60.0, 60.0, 60.0);
  atmos::AmbientProfile amb;
  amb.wind_u = 3.0;

  CoupledOptions two_way;
  two_way.two_way = true;
  CoupledOptions one_way = two_way;
  one_way.two_way = false;

  CoupledModel m2(g, amb, fire::kFuelShortGrass, two_way);
  CoupledModel m1(g, amb, fire::kFuelShortGrass, one_way);
  const std::vector<levelset::Ignition> ign{
      levelset::Ignition{levelset::CircleIgnition{300.0, 360.0, 30.0, 0.0}}};
  m2.ignite(ign);
  m1.ignite(ign);
  for (int s = 0; s < 120; ++s) {
    m2.step(0.5);
    m1.step(0.5);
  }
  // The coupled atmosphere responded (updraft), the uncoupled one did not.
  EXPECT_GT(util::max_abs(m2.atmosphere().state().w), 0.1);
  EXPECT_LT(util::max_abs(m1.atmosphere().state().w), 0.02);
  // And the fire wind fields differ.
  double max_wind_diff = 0;
  for (int j = 0; j < m2.fire_wind_u().ny(); ++j)
    for (int i = 0; i < m2.fire_wind_u().nx(); ++i)
      max_wind_diff = std::max(
          max_wind_diff, std::abs(m2.fire_wind_u()(i, j) - m1.fire_wind_u()(i, j)));
  EXPECT_GT(max_wind_diff, 0.05);
}
