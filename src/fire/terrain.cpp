#include "fire/terrain.h"

#include <cmath>

namespace wfire::fire {

util::Array2D<double> terrain_flat(const grid::Grid2D& g) {
  return util::Array2D<double>(g.nx, g.ny, 0.0);
}

util::Array2D<double> terrain_slope(const grid::Grid2D& g, double sx,
                                    double sy) {
  util::Array2D<double> z(g.nx, g.ny);
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i) z(i, j) = sx * g.x(i) + sy * g.y(j);
  return z;
}

util::Array2D<double> terrain_hill(const grid::Grid2D& g, double cx, double cy,
                                   double height, double radius) {
  util::Array2D<double> z(g.nx, g.ny);
  const double inv2r2 = 1.0 / (2.0 * radius * radius);
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i) {
      const double dx = g.x(i) - cx, dy = g.y(j) - cy;
      z(i, j) = height * std::exp(-(dx * dx + dy * dy) * inv2r2);
    }
  return z;
}

util::Array2D<double> terrain_random(const grid::Grid2D& g, int n,
                                     double height, double radius,
                                     util::Rng& rng) {
  util::Array2D<double> z(g.nx, g.ny, 0.0);
  for (int b = 0; b < n; ++b) {
    const double cx = rng.uniform(g.x0, g.x0 + g.width());
    const double cy = rng.uniform(g.y0, g.y0 + g.height());
    const double h = rng.uniform(0.3, 1.0) * height;
    const double r = rng.uniform(0.5, 1.5) * radius;
    const double inv2r2 = 1.0 / (2.0 * r * r);
    for (int j = 0; j < g.ny; ++j)
      for (int i = 0; i < g.nx; ++i) {
        const double dx = g.x(i) - cx, dy = g.y(j) - cy;
        z(i, j) += h * std::exp(-(dx * dx + dy * dy) * inv2r2);
      }
  }
  return z;
}

void terrain_gradient(const grid::Grid2D& g, const util::Array2D<double>& z,
                      util::Array2D<double>& dzdx,
                      util::Array2D<double>& dzdy) {
  if (!dzdx.same_shape(z)) dzdx = util::Array2D<double>(z.nx(), z.ny());
  if (!dzdy.same_shape(z)) dzdy = util::Array2D<double>(z.nx(), z.ny());
  const double ihx = 0.5 / g.dx, ihy = 0.5 / g.dy;
  for (int j = 0; j < z.ny(); ++j)
    for (int i = 0; i < z.nx(); ++i) {
      // One-sided at boundaries via clamped reads (half-weight there).
      const double xl = z.at_clamped(i - 1, j), xr = z.at_clamped(i + 1, j);
      const double yl = z.at_clamped(i, j - 1), yr = z.at_clamped(i, j + 1);
      const double wx = (i == 0 || i == z.nx() - 1) ? 2.0 : 1.0;
      const double wy = (j == 0 || j == z.ny() - 1) ? 2.0 : 1.0;
      dzdx(i, j) = (xr - xl) * ihx * wx;
      dzdy(i, j) = (yr - yl) * ihy * wy;
    }
}

}  // namespace wfire::fire
