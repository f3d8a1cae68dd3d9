#include "atmos/poisson.h"

#include <algorithm>
#include <cmath>

namespace wfire::atmos {

namespace {
// Periodic wrap for x/y indices.
inline int wrap(int i, int n) { return (i + n) % n; }
}  // namespace

void apply_laplacian(const grid::Grid3D& g, const Field3& phi, Field3& out) {
  const int nx = g.nx, ny = g.ny, nz = g.nz;
  if (!out.same_shape(phi)) out = Field3(nx, ny, nz);
  const double cx = 1.0 / (g.dx * g.dx);
  const double cy = 1.0 / (g.dy * g.dy);
  const double cz = 1.0 / (g.dz * g.dz);
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        const double c = phi(i, j, k);
        const double xl = phi(wrap(i - 1, nx), j, k);
        const double xr = phi(wrap(i + 1, nx), j, k);
        const double yl = phi(i, wrap(j - 1, ny), k);
        const double yr = phi(i, wrap(j + 1, ny), k);
        // Neumann in z: mirror ghost equals the interior value.
        const double zl = k > 0 ? phi(i, j, k - 1) : c;
        const double zr = k < nz - 1 ? phi(i, j, k + 1) : c;
        out(i, j, k) = cx * (xl - 2 * c + xr) + cy * (yl - 2 * c + yr) +
                       cz * (zl - 2 * c + zr);
      }
    }
  }
}

double residual(const grid::Grid3D& g, const Field3& phi, const Field3& rhs,
                Field3& r) {
  apply_laplacian(g, phi, r);
  double worst = 0;
  for (int k = 0; k < g.nz; ++k)
    for (int j = 0; j < g.ny; ++j)
      for (int i = 0; i < g.nx; ++i) {
        r(i, j, k) = rhs(i, j, k) - r(i, j, k);
        worst = std::max(worst, std::abs(r(i, j, k)));
      }
  return worst;
}

void remove_mean(Field3& f) {
  double mean = 0;
  for (const double v : f) mean += v;
  mean /= static_cast<double>(f.size());
  for (double& v : f) v -= mean;
}

void rbgs_sweep(const grid::Grid3D& g, const Field3& rhs, Field3& phi,
                double omega) {
  const int nx = g.nx, ny = g.ny, nz = g.nz;
  const double cx = 1.0 / (g.dx * g.dx);
  const double cy = 1.0 / (g.dy * g.dy);
  const double cz = 1.0 / (g.dz * g.dz);
  for (int color = 0; color < 2; ++color) {
    for (int k = 0; k < nz; ++k) {
      for (int j = 0; j < ny; ++j) {
        for (int i = 0; i < nx; ++i) {
          if (((i + j + k) & 1) != color) continue;
          const double xl = phi(wrap(i - 1, nx), j, k);
          const double xr = phi(wrap(i + 1, nx), j, k);
          const double yl = phi(i, wrap(j - 1, ny), k);
          const double yr = phi(i, wrap(j + 1, ny), k);
          // Neumann in z: the missing neighbor contributes neither to the
          // off-diagonal sum nor to the diagonal.
          double diag = 2 * cx + 2 * cy;
          double off = cx * (xl + xr) + cy * (yl + yr);
          if (k > 0) {
            off += cz * phi(i, j, k - 1);
            diag += cz;
          }
          if (k < nz - 1) {
            off += cz * phi(i, j, k + 1);
            diag += cz;
          }
          const double gs = (off - rhs(i, j, k)) / diag;
          phi(i, j, k) += omega * (gs - phi(i, j, k));
        }
      }
    }
  }
}

SolveStats solve_sor(const grid::Grid3D& g, const Field3& rhs, Field3& phi,
                     const SorOptions& opt) {
  if (!phi.same_shape(rhs)) phi = Field3(g.nx, g.ny, g.nz, 0.0);
  Field3 r(g.nx, g.ny, g.nz);
  SolveStats stats;
  for (int it = 0; it < opt.max_iters; ++it) {
    rbgs_sweep(g, rhs, phi, opt.omega);
    // Check the residual every few sweeps; it is as costly as a sweep.
    if (it % 5 == 4 || it == opt.max_iters - 1) {
      stats.final_residual = residual(g, phi, rhs, r);
      stats.iterations = it + 1;
      if (stats.final_residual < opt.tol) {
        stats.converged = true;
        break;
      }
    }
  }
  remove_mean(phi);
  return stats;
}

}  // namespace wfire::atmos
