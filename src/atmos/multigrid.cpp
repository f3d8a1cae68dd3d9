#include "atmos/multigrid.h"

#include <cmath>

namespace wfire::atmos {

namespace {
bool can_coarsen(const grid::Grid3D& g) {
  return g.nx % 2 == 0 && g.ny % 2 == 0 && g.nz % 2 == 0 && g.nx >= 4 &&
         g.ny >= 4 && g.nz >= 4;
}
}  // namespace

void mg_restrict(const Field3& fine, Field3& coarse) {
  const int nx = coarse.nx(), ny = coarse.ny(), nz = coarse.nz();
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        double s = 0;
        for (int c = 0; c < 2; ++c)
          for (int b = 0; b < 2; ++b)
            for (int a = 0; a < 2; ++a)
              s += fine(2 * i + a, 2 * j + b, 2 * k + c);
        coarse(i, j, k) = 0.125 * s;
      }
}

void mg_prolong_add(const Field3& coarse, Field3& fine) {
  const int nx = fine.nx(), ny = fine.ny(), nz = fine.nz();
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        // Piecewise-constant injection; smoothing sweeps immediately follow,
        // which restores the usual V-cycle convergence at lower cost.
        fine(i, j, k) += coarse(i / 2, j / 2, k / 2);
}

Multigrid::Multigrid(const grid::Grid3D& fine, MultigridOptions opt)
    : opt_(opt) {
  grids_.push_back(fine);
  while (can_coarsen(grids_.back())) {
    const grid::Grid3D& g = grids_.back();
    grids_.emplace_back(g.nx / 2, g.ny / 2, g.nz / 2, g.dx * 2, g.dy * 2,
                        g.dz * 2);
  }
  for (const auto& g : grids_) {
    rhs_buf_.emplace_back(g.nx, g.ny, g.nz);
    phi_buf_.emplace_back(g.nx, g.ny, g.nz);
    res_buf_.emplace_back(g.nx, g.ny, g.nz);
  }
}

void Multigrid::vcycle(std::size_t level, const Field3& rhs, Field3& phi) {
  const grid::Grid3D& g = grids_[level];
  if (level + 1 == grids_.size()) {
    for (int it = 0; it < opt_.coarse_iters; ++it)
      rbgs_sweep(g, rhs, phi, 1.2);
    return;
  }
  for (int s = 0; s < opt_.pre_smooth; ++s) rbgs_sweep(g, rhs, phi, opt_.omega);

  residual(g, phi, rhs, res_buf_[level]);
  mg_restrict(res_buf_[level], rhs_buf_[level + 1]);
  phi_buf_[level + 1].fill(0.0);
  vcycle(level + 1, rhs_buf_[level + 1], phi_buf_[level + 1]);
  mg_prolong_add(phi_buf_[level + 1], phi);

  for (int s = 0; s < opt_.post_smooth; ++s)
    rbgs_sweep(g, rhs, phi, opt_.omega);
}

SolveStats Multigrid::solve(const Field3& rhs, Field3& phi) {
  const grid::Grid3D& g = grids_.front();
  if (!phi.same_shape(rhs)) phi = Field3(g.nx, g.ny, g.nz, 0.0);
  SolveStats stats;
  Field3& r = res_buf_.front();
  for (int cycle = 0; cycle < opt_.max_cycles; ++cycle) {
    vcycle(0, rhs, phi);
    stats.iterations = cycle + 1;
    stats.final_residual = residual(g, phi, rhs, r);
    if (stats.final_residual < opt_.tol) {
      stats.converged = true;
      break;
    }
  }
  remove_mean(phi);
  return stats;
}

}  // namespace wfire::atmos
