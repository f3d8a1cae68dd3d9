#include "atmos/state.h"

#include <algorithm>
#include <cmath>

namespace wfire::atmos {

namespace {
inline int wrap(int i, int n) { return (i + n) % n; }
}  // namespace

double AmbientProfile::wind_profile(double z) const {
  constexpr double kRefHeight = 100.0;
  if (z <= roughness_z0) return 0.0;
  if (z >= kRefHeight) return 1.0;
  return std::log(z / roughness_z0) / std::log(kRefHeight / roughness_z0);
}

void initialize_ambient(const grid::Grid3D& g, const AmbientProfile& amb,
                        AtmosState& s) {
  s = AtmosState(g);
  for (int k = 0; k < g.nz; ++k) {
    const double prof = amb.wind_profile(g.zc(k));
    const double uz = amb.wind_u * prof;
    const double vz = amb.wind_v * prof;
    for (int j = 0; j < g.ny; ++j)
      for (int i = 0; i < g.nx; ++i) {
        s.u(i, j, k) = uz;
        s.v(i, j, k) = vz;
      }
  }
}

double cell_divergence(const grid::Grid3D& g, const AtmosState& s, int i,
                       int j, int k) {
  return (s.u(wrap(i + 1, g.nx), j, k) - s.u(i, j, k)) / g.dx +
         (s.v(i, wrap(j + 1, g.ny), k) - s.v(i, j, k)) / g.dy +
         (s.w(i, j, k + 1) - s.w(i, j, k)) / g.dz;
}

double max_divergence(const grid::Grid3D& g, const AtmosState& s) {
  double worst = 0;
  for (int k = 0; k < g.nz; ++k)
    for (int j = 0; j < g.ny; ++j)
      for (int i = 0; i < g.nx; ++i)
        worst = std::max(worst, std::abs(cell_divergence(g, s, i, j, k)));
  return worst;
}

double advective_cfl(const grid::Grid3D& g, const AtmosState& s, double dt) {
  const double umax = util::max_abs(s.u);
  const double vmax = util::max_abs(s.v);
  const double wmax = util::max_abs(s.w);
  return dt * (umax / g.dx + vmax / g.dy + wmax / g.dz);
}

void cell_center_wind(const grid::Grid3D& g, const AtmosState& s, int i,
                      int j, int k, double& uc, double& vc) {
  uc = 0.5 * (s.u(i, j, k) + s.u(wrap(i + 1, g.nx), j, k));
  vc = 0.5 * (s.v(i, j, k) + s.v(i, wrap(j + 1, g.ny), k));
}

}  // namespace wfire::atmos
