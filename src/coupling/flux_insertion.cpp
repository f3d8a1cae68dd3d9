#include "coupling/flux_insertion.h"

#include <cmath>
#include <stdexcept>

namespace wfire::coupling {

FluxInserter::FluxInserter(const grid::Grid3D& g, FluxInsertionParams p)
    : g_(g), p_(p) {
  if (p_.decay_height <= 0)
    throw std::invalid_argument("FluxInserter: decay_height <= 0");
  // Normalized exponential column weights: sum w_k * dz = 1.
  w_.resize(static_cast<std::size_t>(g.nz));
  double sum = 0;
  for (int k = 0; k < g.nz; ++k) {
    w_[k] = std::exp(-g.zc(k) / p_.decay_height);
    sum += w_[k] * g.dz;
  }
  for (double& w : w_) w /= sum;
}

void FluxInserter::insert(const util::Array2D<double>& sensible,
                          const util::Array2D<double>& latent,
                          util::Array3D<double>& theta_src,
                          util::Array3D<double>& qv_src) const {
  if (sensible.nx() != g_.nx || sensible.ny() != g_.ny)
    throw std::invalid_argument("FluxInserter: flux map shape mismatch");
  if (!latent.same_shape(sensible))
    throw std::invalid_argument("FluxInserter: latent shape mismatch");
  if (theta_src.nx() != g_.nx || theta_src.ny() != g_.ny ||
      theta_src.nz() != g_.nz)
    theta_src = util::Array3D<double>(g_.nx, g_.ny, g_.nz, 0.0);
  if (!qv_src.same_shape(theta_src))
    qv_src = util::Array3D<double>(g_.nx, g_.ny, g_.nz, 0.0);

  const double inv_rhocp = 1.0 / (p_.rho * p_.cp);
  const double inv_rholv = 1.0 / (p_.rho * p_.Lv);
  for (int k = 0; k < g_.nz; ++k) {
    const double wk = w_[k];
    for (int j = 0; j < g_.ny; ++j)
      for (int i = 0; i < g_.nx; ++i) {
        theta_src(i, j, k) = sensible(i, j) * wk * inv_rhocp;
        qv_src(i, j, k) = latent(i, j) * wk * inv_rholv;
      }
  }
}

void insert_single_cell(const grid::Grid3D& g, const FluxInsertionParams& p,
                        const util::Array2D<double>& sensible,
                        const util::Array2D<double>& latent,
                        util::Array3D<double>& theta_src,
                        util::Array3D<double>& qv_src) {
  if (theta_src.nx() != g.nx || theta_src.ny() != g.ny || theta_src.nz() != g.nz)
    theta_src = util::Array3D<double>(g.nx, g.ny, g.nz, 0.0);
  if (!qv_src.same_shape(theta_src))
    qv_src = util::Array3D<double>(g.nx, g.ny, g.nz, 0.0);
  theta_src.fill(0.0);
  qv_src.fill(0.0);
  // All energy deposited in the lowest cell: weight 1/dz.
  const double wk = 1.0 / g.dz;
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i) {
      theta_src(i, j, 0) = sensible(i, j) * wk / (p.rho * p.cp);
      qv_src(i, j, 0) = latent(i, j) * wk / (p.rho * p.Lv);
    }
}

}  // namespace wfire::coupling
