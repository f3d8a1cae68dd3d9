#include "levelset/integrator.h"

#include <algorithm>
#include <stdexcept>

namespace wfire::levelset {

namespace {
StepStats stats_for(const grid::Grid2D& g, const util::Array2D<double>& speed,
                    double dt) {
  StepStats st;
  st.max_speed = util::max_value(speed);
  st.cfl = st.max_speed * dt / std::min(g.dx, g.dy);
  return st;
}
}  // namespace

StepStats step_euler(const grid::Grid2D& g, const util::Array2D<double>& speed,
                     double dt, UpwindScheme scheme,
                     util::Array2D<double>& psi) {
  StepScratch scratch;
  return step_euler(g, speed, dt, scheme, psi, scratch);
}

StepStats step_euler(const grid::Grid2D& g, const util::Array2D<double>& speed,
                     double dt, UpwindScheme scheme, util::Array2D<double>& psi,
                     StepScratch& scratch) {
  if (!speed.same_shape(psi))
    throw std::invalid_argument("step_euler: speed/psi shape mismatch");
  gradient_magnitude(g, psi, scheme, scratch.k1);
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i)
      psi(i, j) -= dt * speed(i, j) * scratch.k1(i, j);
  return stats_for(g, speed, dt);
}

StepStats step_heun(const grid::Grid2D& g, const util::Array2D<double>& speed,
                    double dt, UpwindScheme scheme,
                    util::Array2D<double>& psi) {
  StepScratch scratch;
  return step_heun(g, speed, dt, scheme, psi, scratch);
}

StepStats step_heun(const grid::Grid2D& g, const util::Array2D<double>& speed,
                    double dt, UpwindScheme scheme, util::Array2D<double>& psi,
                    StepScratch& scratch) {
  if (!speed.same_shape(psi))
    throw std::invalid_argument("step_heun: speed/psi shape mismatch");
  util::Array2D<double>& k1 = scratch.k1;
  util::Array2D<double>& k2 = scratch.k2;
  util::Array2D<double>& predictor = scratch.predictor;
  gradient_magnitude(g, psi, scheme, k1);

  if (!predictor.same_shape(psi))
    predictor = util::Array2D<double>(g.nx, g.ny);
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i)
      predictor(i, j) = psi(i, j) - dt * speed(i, j) * k1(i, j);

  gradient_magnitude(g, predictor, scheme, k2);
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i)
      psi(i, j) -= 0.5 * dt * speed(i, j) * (k1(i, j) + k2(i, j));
  return stats_for(g, speed, dt);
}

}  // namespace wfire::levelset
