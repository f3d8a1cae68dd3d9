// Level set solver tests against analytic solutions: signed distance
// initialization, Godunov upwinding (the paper's rule), Euler vs Heun bias
// (the paper's conservation claim), front extraction, and fast-sweeping
// reinitialization.
#include <gtest/gtest.h>

#include <cmath>

#include "levelset/fast_sweep.h"
#include "levelset/front.h"
#include "levelset/godunov.h"
#include "levelset/initialize.h"
#include "levelset/integrator.h"

using namespace wfire::levelset;
using wfire::grid::Grid2D;
using wfire::util::Array2D;

namespace {

// 200 m x 200 m domain with 2 m spacing.
Grid2D test_grid() { return Grid2D(101, 101, 2.0, 2.0); }

Array2D<double> circle_psi(const Grid2D& g, double cx, double cy, double r) {
  Array2D<double> psi;
  initialize_signed_distance(g, {CircleIgnition{cx, cy, r, 0.0}}, psi);
  return psi;
}

}  // namespace

TEST(Initialize, CircleSignedDistanceExact) {
  const Grid2D g = test_grid();
  const Array2D<double> psi = circle_psi(g, 100.0, 100.0, 30.0);
  for (int j = 0; j < g.ny; j += 10)
    for (int i = 0; i < g.nx; i += 10) {
      const double d = std::hypot(g.x(i) - 100.0, g.y(j) - 100.0) - 30.0;
      EXPECT_NEAR(psi(i, j), d, 1e-12);
    }
}

TEST(Initialize, LineCapsuleDistance) {
  const Grid2D g = test_grid();
  Array2D<double> psi;
  initialize_signed_distance(
      g, {LineIgnition{50.0, 100.0, 150.0, 100.0, 5.0, 0.0}}, psi);
  // On the segment: -w; at distance 10 beside the midpoint: 10 - w.
  EXPECT_NEAR(psi(50, 50), -5.0, 1e-12);
  const double d = std::hypot(0.0, 10.0) - 5.0;
  EXPECT_NEAR(psi(50, 55), d, 1e-12);
  // Beyond an endpoint.
  EXPECT_NEAR(psi(80, 50), std::hypot(160.0 - 150.0, 0.0) - 5.0, 1e-12);
}

TEST(Initialize, UnionTakesMinimum) {
  const Grid2D g = test_grid();
  Array2D<double> psi;
  initialize_signed_distance(g,
                             {CircleIgnition{60.0, 100.0, 10.0, 0.0},
                              CircleIgnition{140.0, 100.0, 10.0, 0.0}},
                             psi);
  EXPECT_LT(psi(30, 50), 0.0);
  EXPECT_LT(psi(70, 50), 0.0);
  EXPECT_GT(psi(50, 50), 0.0);  // midpoint between the circles
}

TEST(Initialize, EmptyIgnitionsGiveNoFire) {
  const Grid2D g = test_grid();
  Array2D<double> psi;
  initialize_signed_distance(g, {}, psi);
  EXPECT_GT(wfire::util::min_value(psi), 0.0);
}

TEST(Godunov, GradientOfSignedDistanceIsOne) {
  const Grid2D g = test_grid();
  const Array2D<double> psi = circle_psi(g, 100.0, 100.0, 30.0);
  Array2D<double> grad;
  gradient_magnitude(g, psi, UpwindScheme::kPaperRule, grad);
  // Away from the center kink and boundary, |grad psi| = 1 up to the
  // first-order upwind truncation error on a curved front (~h/r).
  for (int j = 20; j < 80; ++j)
    for (int i = 20; i < 80; ++i) {
      const double r = std::hypot(g.x(i) - 100.0, g.y(j) - 100.0);
      if (r > 10.0) {
        EXPECT_NEAR(grad(i, j), 1.0, 0.1);
      }
    }
}

TEST(Godunov, SchemesAgreeOnSmoothExpandingFront) {
  const Grid2D g = test_grid();
  const Array2D<double> psi = circle_psi(g, 100.0, 100.0, 30.0);
  Array2D<double> g1, g2;
  gradient_magnitude(g, psi, UpwindScheme::kPaperRule, g1);
  gradient_magnitude(g, psi, UpwindScheme::kStandardGodunov, g2);
  double max_diff = 0;
  for (int j = 30; j < 70; ++j)
    for (int i = 30; i < 70; ++i) {
      const double r = std::hypot(g.x(i) - 100.0, g.y(j) - 100.0);
      if (r > 10.0) max_diff = std::max(max_diff, std::abs(g1(i, j) - g2(i, j)));
    }
  EXPECT_LT(max_diff, 1e-10);
}

TEST(Normals, PointOutwardFromCircle) {
  const Grid2D g = test_grid();
  const Array2D<double> psi = circle_psi(g, 100.0, 100.0, 30.0);
  Array2D<double> nx, ny;
  normals(g, psi, nx, ny);
  // At (130+, 100): outward normal is +x.
  EXPECT_NEAR(nx(70, 50), 1.0, 1e-6);
  EXPECT_NEAR(ny(70, 50), 0.0, 1e-6);
  // Unit length everywhere away from the center.
  for (int j = 20; j < 80; j += 7)
    for (int i = 20; i < 80; i += 7) {
      const double r = std::hypot(g.x(i) - 100.0, g.y(j) - 100.0);
      if (r > 10.0) {
        EXPECT_NEAR(std::hypot(nx(i, j), ny(i, j)), 1.0, 1e-9);
      }
    }
}

// The fundamental analytic check: a circular front expanding at constant
// speed S stays a circle with radius r0 + S t.
class ExpansionParam
    : public ::testing::TestWithParam<std::pair<UpwindScheme, bool>> {};

TEST_P(ExpansionParam, CircleExpandsAtSpeedS) {
  const auto [scheme, use_heun] = GetParam();
  const Grid2D g = test_grid();
  Array2D<double> psi = circle_psi(g, 100.0, 100.0, 20.0);
  Array2D<double> speed(g.nx, g.ny, 1.0);  // S = 1 m/s
  const double dt = 0.5;                   // CFL = 0.25
  const double T = 30.0;
  for (double t = 0; t < T - 1e-9; t += dt) {
    if (use_heun)
      step_heun(g, speed, dt, scheme, psi);
    else
      step_euler(g, speed, dt, scheme, psi);
  }
  const double expected_r = 20.0 + T;
  const double area = burned_area(g, psi);
  const double r_eff = std::sqrt(area / M_PI);
  EXPECT_NEAR(r_eff, expected_r, 1.5);  // within one cell
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, ExpansionParam,
    ::testing::Values(std::pair{UpwindScheme::kPaperRule, true},
                      std::pair{UpwindScheme::kStandardGodunov, true},
                      std::pair{UpwindScheme::kPaperRule, false}));

TEST(Integrator, EulerAndHeunAgreeOnSmoothConstantSpeed) {
  // For constant S and a signed-distance psi, |grad psi| stays ~1 and the
  // Euler time-stepping bias the paper describes cancels: both integrators
  // track the analytic solution. (The systematic Euler under-burn appears
  // once the speed couples back to psi through normals and fuel depletion —
  // see FireModel.EulerOptionUnderburnsVsHeun and bench_abl_integrator.)
  const Grid2D g = test_grid();
  Array2D<double> psi_e = circle_psi(g, 100.0, 100.0, 20.0);
  Array2D<double> psi_h = psi_e;
  Array2D<double> speed(g.nx, g.ny, 1.0);
  const double dt = 1.6;  // CFL = 0.8
  for (int s = 0; s < 25; ++s) {
    step_euler(g, speed, dt, UpwindScheme::kPaperRule, psi_e);
    step_heun(g, speed, dt, UpwindScheme::kPaperRule, psi_h);
  }
  const double area_e = burned_area(g, psi_e);
  const double area_h = burned_area(g, psi_h);
  const double exact = M_PI * std::pow(20.0 + 25 * dt, 2);
  EXPECT_LT(std::abs(area_h - exact) / exact, 0.08);
  EXPECT_LT(std::abs(area_e - area_h) / exact, 0.02);
}

TEST(Integrator, StepStatsReportCfl) {
  const Grid2D g = test_grid();
  Array2D<double> psi = circle_psi(g, 100.0, 100.0, 20.0);
  Array2D<double> speed(g.nx, g.ny, 2.0);
  const StepStats st = step_heun(g, speed, 0.5, UpwindScheme::kPaperRule, psi);
  EXPECT_DOUBLE_EQ(st.max_speed, 2.0);
  EXPECT_NEAR(st.cfl, 2.0 * 0.5 / 2.0, 1e-12);
}

TEST(Front, ExtractedLengthMatchesCircle) {
  const Grid2D g = test_grid();
  const Array2D<double> psi = circle_psi(g, 100.0, 100.0, 30.0);
  const auto segs = extract_front(g, psi);
  EXPECT_GT(segs.size(), 20u);
  EXPECT_NEAR(front_length(segs), 2.0 * M_PI * 30.0, 4.0);
}

TEST(Front, BurnedAreaMatchesCircle) {
  const Grid2D g = test_grid();
  const Array2D<double> psi = circle_psi(g, 100.0, 100.0, 30.0);
  EXPECT_NEAR(burned_area(g, psi), M_PI * 900.0, 30.0);
}

TEST(Front, RightmostBurningX) {
  const Grid2D g = test_grid();
  const Array2D<double> psi = circle_psi(g, 100.0, 100.0, 30.0);
  EXPECT_NEAR(rightmost_burning_x(g, psi), 130.0, 0.5);
  Array2D<double> none(g.nx, g.ny, 1.0);
  EXPECT_TRUE(std::isinf(rightmost_burning_x(g, none)));
}

TEST(Front, NoSegmentsWhenUniformSign) {
  const Grid2D g = test_grid();
  Array2D<double> psi(g.nx, g.ny, 5.0);
  EXPECT_TRUE(extract_front(g, psi).empty());
  EXPECT_DOUBLE_EQ(burned_area(g, psi), 0.0);
}

TEST(FastSweep, RebuildsSignedDistance) {
  const Grid2D g = test_grid();
  // Distort a signed distance field without moving the zero contour:
  // psi -> psi^3 / 100 keeps the sign but wrecks |grad psi|.
  Array2D<double> psi = circle_psi(g, 100.0, 100.0, 40.0);
  Array2D<double> distorted = psi;
  for (double& v : distorted) v = v * v * v / 100.0;

  reinitialize(g, distorted, 3);
  // |grad| ~ 1 near the front again.
  EXPECT_LT(eikonal_residual(g, distorted, 20.0), 0.15);
  // Zero contour preserved: burned area unchanged within a cell.
  EXPECT_NEAR(burned_area(g, distorted), burned_area(g, psi), 60.0);
}

TEST(FastSweep, NoInterfaceIsANoop) {
  const Grid2D g = test_grid();
  Array2D<double> psi(g.nx, g.ny, 7.0);
  Array2D<double> copy = psi;
  reinitialize(g, psi);
  EXPECT_TRUE(psi == copy);
}

TEST(FastSweep, DistancesMatchExactCircle) {
  const Grid2D g = test_grid();
  Array2D<double> psi = circle_psi(g, 100.0, 100.0, 40.0);
  // Replace with +-1 sign field: reinit must recover distances.
  Array2D<double> sign(g.nx, g.ny);
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i) sign(i, j) = psi(i, j) < 0 ? -1.0 : 1.0;
  reinitialize(g, sign, 3);
  // Compare near the front where first-order distance is accurate.
  for (int j = 10; j < 90; j += 5)
    for (int i = 10; i < 90; i += 5)
      if (std::abs(psi(i, j)) < 20.0) {
        EXPECT_NEAR(sign(i, j), psi(i, j), 3.0);
      }
}

TEST(Ignition, DelayedShapeHasItsTime) {
  const CircleIgnition c{0, 0, 5, 120.0};
  EXPECT_DOUBLE_EQ(ignition_time(Ignition{c}), 120.0);
}
