#include "fire/reaction_diffusion.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wfire::fire {

RdFireModel::RdFireModel(const grid::Grid2D& g, RdFireParams p)
    : grid_(g), p_(p) {
  if (p_.k <= 0 || p_.A < 0 || p_.B <= 0 || p_.C < 0 || p_.Cs < 0)
    throw std::invalid_argument("RdFireModel: invalid parameters");
  state_.T = util::Array2D<double>(g.nx, g.ny, p_.Ta);
  state_.beta = util::Array2D<double>(g.nx, g.ny, 1.0);
  T_new_ = state_.T;
  beta_new_ = state_.beta;
}

void RdFireModel::ignite(double cx, double cy, double radius, double T_hot) {
  for (int j = 0; j < grid_.ny; ++j)
    for (int i = 0; i < grid_.nx; ++i) {
      const double d = std::hypot(grid_.x(i) - cx, grid_.y(j) - cy);
      if (d <= radius) state_.T(i, j) = T_hot;
    }
}

double RdFireModel::reaction_rate(double T) const {
  const double dT = T - p_.Ta;
  if (dT <= 0) return 0.0;
  return std::exp(-p_.B / dT);
}

double RdFireModel::stable_dt() const {
  const double h2 = std::min(grid_.dx * grid_.dx, grid_.dy * grid_.dy);
  return h2 / (4.0 * p_.k);
}

void RdFireModel::step(double dt, double vx, double vy) {
  if (dt <= 0) throw std::invalid_argument("RdFireModel::step: dt <= 0");
  if (dt > stable_dt() * (1.0 + 1e-9))
    throw std::invalid_argument(
        "RdFireModel::step: dt exceeds the diffusive stability bound");
  const double ihx = 1.0 / grid_.dx, ihy = 1.0 / grid_.dy;
  const double ihx2 = ihx * ihx, ihy2 = ihy * ihy;

  for (int j = 0; j < grid_.ny; ++j) {
    for (int i = 0; i < grid_.nx; ++i) {
      const double Tc = state_.T(i, j);
      const double Txm = state_.T.at_clamped(i - 1, j);
      const double Txp = state_.T.at_clamped(i + 1, j);
      const double Tym = state_.T.at_clamped(i, j - 1);
      const double Typ = state_.T.at_clamped(i, j + 1);

      const double diff =
          p_.k * ((Txm - 2 * Tc + Txp) * ihx2 + (Tym - 2 * Tc + Typ) * ihy2);
      const double adv = (vx > 0 ? vx * (Tc - Txm) * ihx
                                 : vx * (Txp - Tc) * ihx) +
                         (vy > 0 ? vy * (Tc - Tym) * ihy
                                 : vy * (Typ - Tc) * ihy);
      const double r = reaction_rate(Tc);
      const double beta = state_.beta(i, j);
      const double dTdt = diff - adv + p_.A * beta * r - p_.C * (Tc - p_.Ta);
      T_new_(i, j) = std::max(Tc + dt * dTdt, p_.Ta * 0.5);
      beta_new_(i, j) = std::clamp(beta - dt * p_.Cs * beta * r, 0.0, 1.0);
    }
  }
  std::swap(state_.T, T_new_);
  std::swap(state_.beta, beta_new_);
  state_.time += dt;
}

double RdFireModel::front_position_x(double T_threshold) const {
  double best = -std::numeric_limits<double>::infinity();
  for (int j = 0; j < grid_.ny; ++j)
    for (int i = grid_.nx - 1; i >= 0; --i)
      if (state_.T(i, j) > T_threshold) {
        best = std::max(best, grid_.x(i));
        break;
      }
  return best;
}

double RdFireModel::mean_fuel() const {
  return util::sum(state_.beta) / static_cast<double>(state_.beta.size());
}

double RdFireModel::max_temperature() const {
  return util::max_value(state_.T);
}

}  // namespace wfire::fire
