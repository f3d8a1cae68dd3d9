#include "fire/spread_batch.h"

#include "util/omp_compat.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wfire::fire {

SpreadTables SpreadTables::build(const FuelMap& fuel) {
  const std::size_t n = fuel.index.size();
  SpreadTables t;
  t.R0.resize(n);
  t.a.resize(n);
  t.b.resize(n);
  t.d.resize(n);
  t.Smax.resize(n);
  t.tau.resize(n);
  t.burnable.resize(n);
  const int nx = fuel.index.nx(), ny = fuel.index.ny();
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      const std::size_t c = static_cast<std::size_t>(j) * nx + i;
      const FuelCategory* cat = fuel.at(i, j);
      if (cat == nullptr) {
        t.burnable[c] = 0;
        t.R0[c] = t.a[c] = t.b[c] = t.d[c] = t.Smax[c] = 0.0;
        t.tau[c] = 1.0;
        continue;
      }
      t.burnable[c] = 1;
      t.R0[c] = cat->R0;
      t.a[c] = cat->a;
      t.b[c] = cat->b;
      t.d[c] = cat->d;
      t.Smax[c] = cat->Smax;
      t.tau[c] = cat->tau;
    }
  return t;
}

double spread_field_batch(const grid::Grid2D& g,
                          const levelset::BatchLayout& lay, const double* psi,
                          const double* fuel_frac, const double* wind_u,
                          const double* wind_v, const SpreadTables& tables,
                          const util::Array2D<double>& dzdx,
                          const util::Array2D<double>& dzdy,
                          double min_fuel_frac, const int* band, int nband,
                          double* speed) {
  if (tables.R0.size() != lay.cells())
    throw std::invalid_argument("spread_field_batch: tables/layout mismatch");
  const int nx = lay.nx, ny = lay.ny, stride = lay.stride;
  const double ihx = 0.5 / g.dx, ihy = 0.5 / g.dy;
  double smax_band = 0.0;

WFIRE_PRAGMA_OMP(omp parallel for schedule(static) reduction(max : smax_band))
  for (int bi = 0; bi < nband; ++bi) {
    const int cell = band[bi];
    const int i = cell % nx;
    const int j = cell / nx;
    double* out = speed + static_cast<std::size_t>(bi) * stride;
    if (!tables.burnable[cell]) {
      for (int k = 0; k < stride; ++k) out[k] = 0.0;
      continue;
    }
    const int xl = i > 0 ? cell - 1 : cell;
    const int xr = i < nx - 1 ? cell + 1 : cell;
    const int yl = j > 0 ? cell - nx : cell;
    const int yr = j < ny - 1 ? cell + nx : cell;
    const double* pxl = psi + static_cast<std::size_t>(xl) * stride;
    const double* pxr = psi + static_cast<std::size_t>(xr) * stride;
    const double* pyl = psi + static_cast<std::size_t>(yl) * stride;
    const double* pyr = psi + static_cast<std::size_t>(yr) * stride;
    const double* ff = fuel_frac + static_cast<std::size_t>(cell) * stride;
    const double R0 = tables.R0[cell], a = tables.a[cell], b = tables.b[cell],
                 d = tables.d[cell], Smax = tables.Smax[cell];
    const double zx = dzdx(i, j), zy = dzdy(i, j);
    double smax_cell = 0.0;
    for (int k = 0; k < stride; ++k) {
      if (ff[k] <= min_fuel_frac) {
        out[k] = 0.0;
        continue;
      }
      // Central-difference normal, exactly levelset::normals arithmetic.
      const double gx = (pxr[k] - pxl[k]) * ihx;
      const double gy = (pyr[k] - pyl[k]) * ihy;
      const double mag = std::hypot(gx, gy);
      double nxv = 0.0, nyv = 0.0;
      if (mag > 1e-12) {
        nxv = gx / mag;
        nyv = gy / mag;
      }
      const double vn = wind_u[k] * nxv + wind_v[k] * nyv;
      const double wind_term = vn > 0 ? a * std::pow(vn, b) : 0.0;
      const double slope_n = zx * nxv + zy * nyv;
      const double s = std::clamp(R0 + wind_term + d * slope_n, 0.0, Smax);
      out[k] = s;
      smax_cell = std::max(smax_cell, s);
    }
    smax_band = std::max(smax_band, smax_cell);
  }
  (void)ny;
  return smax_band;
}

}  // namespace wfire::fire
