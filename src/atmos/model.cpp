#include "atmos/model.h"

#include <cmath>

namespace wfire::atmos {

namespace {
inline int wrap(int i, int n) { return (i + n) % n; }
}  // namespace

WrfLite::WrfLite(const grid::Grid3D& g, const AmbientProfile& amb,
                 WrfLiteOptions opt)
    : grid_(g), amb_(amb), opt_(opt) {
  initialize_ambient(grid_, amb_, state_);
  mg_ = std::make_unique<Multigrid>(grid_, opt_.mg);
  rhs_ = Field3(g.nx, g.ny, g.nz, 0.0);
  phi_ = Field3(g.nx, g.ny, g.nz, 0.0);
  predictor_ = AtmosState(g);
}

void WrfLite::set_forcing(const util::Array3D<double>* theta_src,
                          const util::Array3D<double>* qv_src) {
  theta_src_ = theta_src;
  qv_src_ = qv_src;
}

SolveStats WrfLite::project() {
  const int nx = grid_.nx, ny = grid_.ny, nz = grid_.nz;
  // rhs = div(u*) ; the dt factor is absorbed into phi.
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        rhs_(i, j, k) = cell_divergence(grid_, state_, i, j, k);
  remove_mean(rhs_);
  const SolveStats stats = mg_->solve(rhs_, phi_);
  // u -= grad(phi): x-face i sits between cells i-1 and i.
  for (int k = 0; k < nz; ++k) {
    for (int j = 0; j < ny; ++j) {
      for (int i = 0; i < nx; ++i) {
        state_.u(i, j, k) -=
            (phi_(i, j, k) - phi_(wrap(i - 1, nx), j, k)) / grid_.dx;
        state_.v(i, j, k) -=
            (phi_(i, j, k) - phi_(i, wrap(j - 1, ny), k)) / grid_.dy;
      }
    }
  }
  for (int k = 1; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        state_.w(i, j, k) -= (phi_(i, j, k) - phi_(i, j, k - 1)) / grid_.dz;
  return stats;
}

WrfLiteStepInfo WrfLite::step(double dt) {
  WrfLiteStepInfo info;
  info.cfl = advective_cfl(grid_, state_, dt);

  compute_tendencies(grid_, amb_, opt_.dynamics, state_, theta_src_, qv_src_,
                     tend1_);
  // Predictor: full step, project, re-evaluate tendencies, then average.
  predictor_ = state_;
  apply_tendencies(grid_, tend1_, dt, predictor_);
  std::swap(predictor_, state_);
  project();
  std::swap(predictor_, state_);
  compute_tendencies(grid_, amb_, opt_.dynamics, predictor_, theta_src_,
                     qv_src_, tend2_);
  // Corrector on the original state with averaged tendencies.
  apply_tendencies(grid_, tend1_, 0.5 * dt, state_);
  apply_tendencies(grid_, tend2_, 0.5 * dt, state_);
  last_proj_ = project();
  time_ += dt;

  info.mg_cycles = last_proj_.iterations;
  info.max_div_after = max_divergence(grid_, state_);
  info.max_w = util::max_abs(state_.w);
  return info;
}

}  // namespace wfire::atmos
