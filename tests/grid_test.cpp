// Grid geometry, interpolation exactness (bilinear on bilinear functions,
// biquadratic on quadratics — the paper's station sampling), and the
// fire<->atmos transfer operators (conservation).
#include <gtest/gtest.h>

#include <cmath>

#include "grid/grid2d.h"
#include "grid/grid3d.h"
#include "grid/interp.h"
#include "grid/transfer.h"
#include "util/rng.h"

using namespace wfire::grid;
using wfire::util::Array2D;

namespace {

Array2D<double> sample(const Grid2D& g, double (*f)(double, double)) {
  Array2D<double> a(g.nx, g.ny);
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i) a(i, j) = f(g.x(i), g.y(j));
  return a;
}

}  // namespace

TEST(Grid2D, GeometryBasics) {
  const Grid2D g(11, 21, 2.0, 3.0, 10.0, 20.0);
  EXPECT_DOUBLE_EQ(g.x(0), 10.0);
  EXPECT_DOUBLE_EQ(g.x(10), 30.0);
  EXPECT_DOUBLE_EQ(g.y(20), 80.0);
  EXPECT_DOUBLE_EQ(g.width(), 20.0);
  EXPECT_DOUBLE_EQ(g.height(), 60.0);
  EXPECT_TRUE(g.contains_point(15.0, 50.0));
  EXPECT_FALSE(g.contains_point(9.9, 50.0));
  EXPECT_FALSE(g.contains_point(15.0, 80.1));
}

TEST(Grid2D, RejectsBadConstruction) {
  EXPECT_THROW(Grid2D(1, 5, 1, 1), std::invalid_argument);
  EXPECT_THROW(Grid2D(5, 5, 0, 1), std::invalid_argument);
}

TEST(Grid3D, CellCenters) {
  const Grid3D g(4, 4, 2, 60.0, 60.0, 100.0);
  EXPECT_DOUBLE_EQ(g.xc(0), 30.0);
  EXPECT_DOUBLE_EQ(g.zc(1), 150.0);
  EXPECT_DOUBLE_EQ(g.height(), 200.0);
  EXPECT_EQ(g.cell_count(), 32u);
}

TEST(Locate, FindsCellAndFractions) {
  const Grid2D g(11, 11, 1.0, 1.0);
  const CellLocation c = locate(g, 3.25, 7.75);
  EXPECT_TRUE(c.inside);
  EXPECT_EQ(c.i, 3);
  EXPECT_EQ(c.j, 7);
  EXPECT_NEAR(c.tx, 0.25, 1e-12);
  EXPECT_NEAR(c.ty, 0.75, 1e-12);
}

TEST(Locate, ClampsOutsidePoints) {
  const Grid2D g(5, 5, 1.0, 1.0);
  const CellLocation c = locate(g, -3.0, 100.0);
  EXPECT_FALSE(c.inside);
  EXPECT_EQ(c.i, 0);
  EXPECT_EQ(c.j, 3);  // top cell
}

TEST(Bilinear, ExactOnBilinearFunctions) {
  const Grid2D g(9, 9, 0.5, 0.5);
  const auto f = [](double x, double y) { return 2.0 + 3.0 * x - y + 0.5 * x * y; };
  const Array2D<double> a = sample(g, +f);
  for (double x : {0.1, 1.23, 3.9})
    for (double y : {0.0, 2.17, 3.99})
      EXPECT_NEAR(bilinear(g, a, x, y), f(x, y), 1e-12);
}

TEST(Biquadratic, ExactOnQuadratics) {
  const Grid2D g(12, 12, 1.0, 1.0);
  const auto f = [](double x, double y) {
    return 1.0 + x + y + 0.5 * x * x - 0.25 * y * y + 0.1 * x * y;
  };
  const Array2D<double> a = sample(g, +f);
  for (double x : {1.3, 4.5, 9.7})
    for (double y : {2.2, 5.5, 8.8})
      EXPECT_NEAR(biquadratic(g, a, x, y), f(x, y), 1e-10);
}

TEST(Biquadratic, MoreAccurateThanBilinearOnSmoothField) {
  const Grid2D g(33, 33, 1.0 / 32, 1.0 / 32);
  const auto f = [](double x, double y) {
    return std::sin(3.0 * x) * std::cos(2.0 * y);
  };
  const Array2D<double> a = sample(g, +f);
  double err_bi = 0, err_q = 0;
  for (double x = 0.05; x < 0.95; x += 0.17)
    for (double y = 0.07; y < 0.95; y += 0.13) {
      err_bi = std::max(err_bi, std::abs(bilinear(g, a, x, y) - f(x, y)));
      err_q = std::max(err_q, std::abs(biquadratic(g, a, x, y) - f(x, y)));
    }
  EXPECT_LT(err_q, err_bi);
}

TEST(BilinearFrac, MatchesPhysicalSampling) {
  const Grid2D g(6, 6, 2.0, 2.0);
  const auto f = [](double x, double y) { return x + 10.0 * y; };
  const Array2D<double> a = sample(g, +f);
  // The warps sample in fractional index coordinates through the stencil.
  EXPECT_NEAR(BilinearStencil(a.nx(), a.ny(), 1.5, 2.25).apply(a.data()),
              bilinear(g, a, 3.0, 4.5), 1e-12);
}

class TransferParam : public ::testing::TestWithParam<int> {};

TEST_P(TransferParam, RestrictionPreservesMeanFluxDensity) {
  const int ratio = GetParam();
  const int NX = 8, NY = 6;
  Array2D<double> fine(NX * ratio, NY * ratio);
  wfire::util::Rng rng(77);
  for (auto& v : fine) v = rng.uniform(0.0, 1000.0);
  Array2D<double> coarse(NX, NY);
  restrict_average(fine, ratio, coarse);
  // Mean preserved exactly.
  EXPECT_NEAR(wfire::util::sum(coarse) * ratio * ratio,
              wfire::util::sum(fine), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Ratios, TransferParam, ::testing::Values(1, 2, 5, 10));

TEST(Transfer, RejectsMismatchedDims) {
  Array2D<double> fine(10, 10);
  Array2D<double> coarse(3, 3);
  EXPECT_THROW(restrict_average(fine, 4, coarse), std::invalid_argument);
}
