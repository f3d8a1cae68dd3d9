// Atmosphere (WrfLite) tests: Poisson solvers against manufactured
// solutions, multigrid components, projection to divergence-free, buoyant
// plume response to heat forcing, and CFL diagnostics.
#include <gtest/gtest.h>

#include <cmath>

#include "atmos/dynamics.h"
#include "atmos/model.h"
#include "atmos/multigrid.h"
#include "atmos/poisson.h"

using namespace wfire::atmos;
using wfire::grid::Grid3D;

namespace {

// Manufactured periodic-x/y, Neumann-z solution:
//   phi = cos(2 pi i / nx) * cos(2 pi j / ny) * cos(pi (k + 0.5) / nz)
// has d(phi)/dz = 0 at the z boundaries and zero mean.
Field3 manufactured_phi(const Grid3D& g) {
  Field3 phi(g.nx, g.ny, g.nz);
  for (int k = 0; k < g.nz; ++k)
    for (int j = 0; j < g.ny; ++j)
      for (int i = 0; i < g.nx; ++i)
        phi(i, j, k) = std::cos(2 * M_PI * i / g.nx) *
                       std::cos(2 * M_PI * j / g.ny) *
                       std::cos(M_PI * (k + 0.5) / g.nz);
  return phi;
}

}  // namespace

TEST(Poisson, LaplacianOfConstantIsZero) {
  const Grid3D g(8, 8, 8, 50.0, 50.0, 50.0);
  Field3 phi(8, 8, 8, 3.0), out;
  apply_laplacian(g, phi, out);
  EXPECT_LT(wfire::util::max_abs(out), 1e-12);
}

TEST(Poisson, SorSolvesManufactured) {
  const Grid3D g(16, 16, 8, 60.0, 60.0, 100.0);
  const Field3 phi_exact = manufactured_phi(g);
  Field3 rhs;
  apply_laplacian(g, phi_exact, rhs);
  Field3 phi(g.nx, g.ny, g.nz, 0.0);
  SorOptions opt;
  opt.tol = 1e-10;
  opt.max_iters = 20000;
  const SolveStats st = solve_sor(g, rhs, phi, opt);
  EXPECT_TRUE(st.converged);
  // Compare up to the (removed) mean.
  double mean_exact = 0;
  for (const double v : phi_exact) mean_exact += v;
  mean_exact /= static_cast<double>(phi_exact.size());
  double max_err = 0;
  for (int k = 0; k < g.nz; ++k)
    for (int j = 0; j < g.ny; ++j)
      for (int i = 0; i < g.nx; ++i)
        max_err = std::max(max_err, std::abs(phi(i, j, k) -
                                             (phi_exact(i, j, k) - mean_exact)));
  EXPECT_LT(max_err, 1e-5);
}

TEST(Multigrid, RestrictionAveragesProlongationInjects) {
  Field3 fine(4, 4, 4);
  for (int k = 0; k < 4; ++k)
    for (int j = 0; j < 4; ++j)
      for (int i = 0; i < 4; ++i) fine(i, j, k) = i + 10 * j + 100 * k;
  Field3 coarse(2, 2, 2);
  mg_restrict(fine, coarse);
  EXPECT_NEAR(coarse(0, 0, 0), (0 + 1 + 10 + 11 + 100 + 101 + 110 + 111) / 8.0,
              1e-12);
  Field3 back(4, 4, 4, 0.0);
  mg_prolong_add(coarse, back);
  EXPECT_NEAR(back(0, 0, 0), coarse(0, 0, 0), 1e-12);
  EXPECT_NEAR(back(1, 1, 1), coarse(0, 0, 0), 1e-12);
}

TEST(Multigrid, SolvesManufacturedFasterThanSor) {
  const Grid3D g(32, 32, 16, 60.0, 60.0, 100.0);
  const Field3 phi_exact = manufactured_phi(g);
  Field3 rhs;
  apply_laplacian(g, phi_exact, rhs);

  Multigrid mg(g);
  EXPECT_GE(mg.levels(), 3);
  Field3 phi(g.nx, g.ny, g.nz, 0.0);
  const SolveStats st = mg.solve(rhs, phi);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(st.iterations, 30);  // V-cycles, vs thousands of SOR sweeps

  Field3 r(g.nx, g.ny, g.nz);
  EXPECT_LT(residual(g, phi, rhs, r), 1e-7);
}

TEST(Multigrid, HandlesNonCoarsenableGrid) {
  const Grid3D g(12, 12, 6, 60.0, 60.0, 100.0);  // coarsens once (6,6,3->odd)
  Multigrid mg(g);
  EXPECT_GE(mg.levels(), 1);
  Field3 rhs(g.nx, g.ny, g.nz, 0.0);
  rhs(3, 3, 2) = 1.0;
  rhs(8, 8, 3) = -1.0;
  Field3 phi;
  const SolveStats st = mg.solve(rhs, phi);
  EXPECT_TRUE(st.converged);
}

TEST(State, AmbientInitializationDivergenceFree) {
  const Grid3D g(16, 16, 8, 60.0, 60.0, 100.0);
  AmbientProfile amb;
  amb.wind_u = 5.0;
  AtmosState s;
  initialize_ambient(g, amb, s);
  EXPECT_LT(max_divergence(g, s), 1e-12);
  // Log profile: wind increases with height up to the reference level.
  EXPECT_LT(s.u(0, 0, 0), s.u(0, 0, 5));
}

TEST(State, CflScalesWithWind) {
  const Grid3D g(8, 8, 8, 60.0, 60.0, 60.0);
  AmbientProfile amb;
  amb.wind_u = 6.0;
  AtmosState s;
  initialize_ambient(g, amb, s);
  const double c1 = advective_cfl(g, s, 0.5);
  const double c2 = advective_cfl(g, s, 1.0);
  EXPECT_NEAR(c2, 2.0 * c1, 1e-12);
  EXPECT_LE(c1, 6.0 * 0.5 / 60.0 + 1e-12);
}

TEST(WrfLite, ProjectionEnforcesDivergenceFree) {
  const Grid3D g(16, 16, 8, 60.0, 60.0, 100.0);
  AmbientProfile amb;
  WrfLite model(g, amb);
  // Inject a divergent velocity bump.
  model.state().u(8, 8, 2) += 3.0;
  model.state().w(8, 8, 3) += 1.0;
  EXPECT_GT(max_divergence(g, model.state()), 1e-3);
  model.project();
  EXPECT_LT(max_divergence(g, model.state()), 1e-6);
}

TEST(WrfLite, AmbientFlowIsSteady) {
  const Grid3D g(16, 16, 8, 60.0, 60.0, 100.0);
  AmbientProfile amb;
  amb.wind_u = 3.0;
  WrfLiteOptions opt;
  WrfLite model(g, amb, opt);
  const double u_before = model.state().u(8, 8, 4);
  for (int s = 0; s < 10; ++s) model.step(0.5);
  // No forcing: the ambient log profile stays put (small numerical drift).
  EXPECT_NEAR(model.state().u(8, 8, 4), u_before, 0.15);
  EXPECT_LT(wfire::util::max_abs(model.state().w), 0.05);
  EXPECT_NEAR(model.time(), 5.0, 1e-9);
}

TEST(WrfLite, HeatForcingDrivesUpdraft) {
  // The paper's coupling mechanism: surface heating must create a plume
  // (updraft above the heat source and near-surface convergence).
  const Grid3D g(16, 16, 8, 60.0, 60.0, 60.0);
  AmbientProfile amb;
  WrfLite model(g, amb);

  wfire::util::Array3D<double> theta_src(g.nx, g.ny, g.nz, 0.0);
  // 0.5 K/s heating in a 2x2 column near the surface (strong fire).
  for (int k = 0; k < 2; ++k)
    for (int j = 7; j <= 8; ++j)
      for (int i = 7; i <= 8; ++i) theta_src(i, j, k) = 0.5;
  model.set_forcing(&theta_src, nullptr);
  for (int s = 0; s < 60; ++s) model.step(0.5);

  // Updraft above the heated column.
  double wmax_center = 0;
  for (int k = 1; k < g.nz; ++k)
    wmax_center = std::max(wmax_center, model.state().w(8, 8, k));
  EXPECT_GT(wmax_center, 0.3);

  // Near-surface convergence: flow toward the column at the lowest level.
  const double u_left = model.state().u(6, 8, 0);   // west of column
  const double u_right = model.state().u(11, 8, 0); // east of column
  EXPECT_GT(u_left, 0.0);
  EXPECT_LT(u_right, 0.0);

  // theta' grew where heated.
  EXPECT_GT(model.state().theta(8, 8, 0), 1.0);
}

TEST(WrfLite, MoistureForcingRaisesQv) {
  const Grid3D g(8, 8, 8, 60.0, 60.0, 60.0);
  AmbientProfile amb;
  WrfLite model(g, amb);
  wfire::util::Array3D<double> qv_src(g.nx, g.ny, g.nz, 0.0);
  qv_src(4, 4, 0) = 1e-5;
  model.set_forcing(nullptr, &qv_src);
  for (int s = 0; s < 20; ++s) model.step(0.5);
  EXPECT_GT(model.state().qv(4, 4, 0), 1e-5);
}

TEST(WrfLite, StepInfoReportsDiagnostics) {
  const Grid3D g(8, 8, 8, 60.0, 60.0, 60.0);
  AmbientProfile amb;
  amb.wind_u = 3.0;
  WrfLite model(g, amb);
  const WrfLiteStepInfo info = model.step(0.5);
  EXPECT_GT(info.cfl, 0.0);
  EXPECT_LT(info.cfl, 1.0);
  EXPECT_LT(info.max_div_after, 1e-5);
  EXPECT_GT(info.mg_cycles, 0);
}

TEST(WrfLite, HonoursCallerProjectionTolerance) {
  // The projection solves to the caller's mg.tol: a loose tolerance stops
  // after fewer V-cycles and leaves more divergence than a tight one.
  const Grid3D g(16, 16, 8, 60.0, 60.0, 60.0);
  AmbientProfile amb;
  wfire::util::Array3D<double> theta_src(g.nx, g.ny, g.nz, 0.0);
  for (int k = 0; k < 2; ++k) theta_src(8, 8, k) = 0.5;
  const auto one_step = [&](double tol) {
    WrfLiteOptions opt;
    opt.mg.tol = tol;
    WrfLite model(g, amb, opt);
    model.set_forcing(&theta_src, nullptr);
    return model.step(0.5);
  };
  const WrfLiteStepInfo loose = one_step(1e-3);
  const WrfLiteStepInfo tight = one_step(1e-10);
  EXPECT_LT(loose.mg_cycles, tight.mg_cycles);
  EXPECT_GT(loose.max_div_after, tight.max_div_after);
}

TEST(Dynamics, ScalarAdvectionConservesIntegral) {
  // Flux-form upwind advection in a periodic divergence-free flow conserves
  // the scalar integral (no sources, no diffusion loss through walls).
  const Grid3D g(16, 16, 8, 50.0, 50.0, 50.0);
  AmbientProfile amb;
  amb.wind_u = 4.0;
  amb.roughness_z0 = 1e-9;  // near-uniform profile
  DynamicsParams p;
  p.eddy_diffusivity = 0.0;
  p.eddy_viscosity = 0.0;
  p.drag_coeff = 0.0;
  p.sponge_coeff = 0.0;
  p.nudge_coeff = 0.0;

  AtmosState s;
  initialize_ambient(g, amb, s);
  s.theta(8, 8, 4) = 5.0;  // blob
  double before = 0;
  for (const double v : s.theta) before += v;

  Tendencies t(g);
  for (int step = 0; step < 40; ++step) {
    compute_tendencies(g, amb, p, s, nullptr, nullptr, t);
    apply_tendencies(g, t, 0.5, s);
  }
  double after = 0;
  for (const double v : s.theta) after += v;
  EXPECT_NEAR(after, before, 1e-8 * std::abs(before) + 1e-8);
}
