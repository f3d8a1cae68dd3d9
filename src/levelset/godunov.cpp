#include "levelset/godunov.h"

#include <algorithm>
#include <cmath>

namespace wfire::levelset {

namespace {

// One axis of the paper's rule: select the upwind one-sided difference.
//   dm: left (backward) difference, dp: right (forward) difference,
//   dc: central difference.
inline double paper_rule(double dm, double dp, double dc) {
  if (dm >= 0.0 && dc >= 0.0) return dm;
  if (dp <= 0.0 && dc <= 0.0) return dp;
  return 0.0;
}

// Standard Godunov (expanding front, S >= 0): squared upwind derivative.
inline double godunov_sq(double dm, double dp) {
  const double a = std::max(dm, 0.0);
  const double b = std::min(dp, 0.0);
  return std::max(a * a, b * b);
}

}  // namespace

void gradient_magnitude(const grid::Grid2D& g,
                        const util::Array2D<double>& psi, UpwindScheme scheme,
                        util::Array2D<double>& gradmag) {
  const int nx = g.nx, ny = g.ny;
  if (!gradmag.same_shape(psi)) gradmag = util::Array2D<double>(nx, ny);
  const double ihx = 1.0 / g.dx, ihy = 1.0 / g.dy;

  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      // One-sided differences with clamped (copy-out) boundary values: the
      // clamp makes the boundary difference zero, which lets the front exit
      // the domain without reflecting.
      const double c = psi(i, j);
      const double xl = psi.at_clamped(i - 1, j);
      const double xr = psi.at_clamped(i + 1, j);
      const double yl = psi.at_clamped(i, j - 1);
      const double yr = psi.at_clamped(i, j + 1);
      const double dxm = (c - xl) * ihx;
      const double dxp = (xr - c) * ihx;
      const double dxc = 0.5 * (xr - xl) * ihx;
      const double dym = (c - yl) * ihy;
      const double dyp = (yr - c) * ihy;
      const double dyc = 0.5 * (yr - yl) * ihy;

      double gx2, gy2;
      switch (scheme) {
        case UpwindScheme::kPaperRule: {
          const double gx = paper_rule(dxm, dxp, dxc);
          const double gy = paper_rule(dym, dyp, dyc);
          gx2 = gx * gx;
          gy2 = gy * gy;
          break;
        }
        case UpwindScheme::kStandardGodunov:
          gx2 = godunov_sq(dxm, dxp);
          gy2 = godunov_sq(dym, dyp);
          break;
        case UpwindScheme::kCentral:
        default:
          gx2 = dxc * dxc;
          gy2 = dyc * dyc;
          break;
      }
      gradmag(i, j) = std::sqrt(gx2 + gy2);
    }
  }
}

void normals(const grid::Grid2D& g, const util::Array2D<double>& psi,
             util::Array2D<double>& nx_out, util::Array2D<double>& ny_out) {
  const int nx = g.nx, ny = g.ny;
  if (!nx_out.same_shape(psi)) nx_out = util::Array2D<double>(nx, ny);
  if (!ny_out.same_shape(psi)) ny_out = util::Array2D<double>(nx, ny);
  const double ihx = 0.5 / g.dx, ihy = 0.5 / g.dy;

  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double gx = (psi.at_clamped(i + 1, j) - psi.at_clamped(i - 1, j)) * ihx;
      const double gy = (psi.at_clamped(i, j + 1) - psi.at_clamped(i, j - 1)) * ihy;
      const double mag = std::hypot(gx, gy);
      if (mag > 1e-12) {
        nx_out(i, j) = gx / mag;
        ny_out(i, j) = gy / mag;
      } else {
        nx_out(i, j) = 0.0;
        ny_out(i, j) = 0.0;
      }
    }
  }
}

}  // namespace wfire::levelset
