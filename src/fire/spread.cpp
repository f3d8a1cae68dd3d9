#include "fire/spread.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wfire::fire {

double spread_rate(const FuelCategory& fuel, double vn, double slope_n) {
  const double wind_term = vn > 0 ? fuel.a * std::pow(vn, fuel.b) : 0.0;
  const double s = fuel.R0 + wind_term + fuel.d * slope_n;
  return std::clamp(s, 0.0, fuel.Smax);
}

void spread_field(const grid::Grid2D& g, const util::Array2D<double>& psi,
                  const FuelMap& fuel, const SpreadInputs& in,
                  const util::Array2D<double>& fuel_frac,
                  double min_fuel_frac, util::Array2D<double>& speed) {
  SpreadScratch scratch;
  spread_field(g, psi, fuel, in, fuel_frac, min_fuel_frac, speed, scratch);
}

void spread_field(const grid::Grid2D& g, const util::Array2D<double>& psi,
                  const FuelMap& fuel, const SpreadInputs& in,
                  const util::Array2D<double>& fuel_frac,
                  double min_fuel_frac, util::Array2D<double>& speed,
                  SpreadScratch& scratch) {
  if (!in.wind_u || !in.wind_v)
    throw std::invalid_argument("spread_field: wind fields required");
  if (!in.wind_u->same_shape(psi) || !in.wind_v->same_shape(psi))
    throw std::invalid_argument("spread_field: wind shape mismatch");
  if (!speed.same_shape(psi))
    speed = util::Array2D<double>(psi.nx(), psi.ny());

  util::Array2D<double>& nx_f = scratch.nx_f;
  util::Array2D<double>& ny_f = scratch.ny_f;
  levelset::normals(g, psi, nx_f, ny_f);

  for (int j = 0; j < g.ny; ++j) {
    for (int i = 0; i < g.nx; ++i) {
      const FuelCategory* cat = fuel.at(i, j);
      if (cat == nullptr || fuel_frac(i, j) <= min_fuel_frac) {
        speed(i, j) = 0.0;
        continue;
      }
      const double nx = nx_f(i, j), ny = ny_f(i, j);
      const double vn = (*in.wind_u)(i, j) * nx + (*in.wind_v)(i, j) * ny;
      double slope_n = 0.0;
      if (in.dzdx && in.dzdy)
        slope_n = (*in.dzdx)(i, j) * nx + (*in.dzdy)(i, j) * ny;
      speed(i, j) = spread_rate(*cat, vn, slope_n);
    }
  }
}

}  // namespace wfire::fire
