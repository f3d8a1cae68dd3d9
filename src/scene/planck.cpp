#include "scene/planck.h"

#include <cmath>
#include <stdexcept>

namespace wfire::scene {

namespace {
constexpr double kH = 6.62607015e-34;   // Planck [J s]
constexpr double kC = 2.99792458e8;     // speed of light [m/s]
constexpr double kKb = 1.380649e-23;    // Boltzmann [J/K]
}  // namespace

double planck_spectral_radiance(double lambda_m, double T) {
  if (lambda_m <= 0) throw std::invalid_argument("planck: lambda <= 0");
  if (T <= 0) return 0.0;
  const double c1 = 2.0 * kH * kC * kC;                  // [W m^2]
  const double x = kH * kC / (lambda_m * kKb * T);
  if (x > 700.0) return 0.0;  // underflow guard
  const double l5 = lambda_m * lambda_m * lambda_m * lambda_m * lambda_m;
  return c1 / (l5 * (std::exp(x) - 1.0));
}

double band_radiance(double T, double lo, double hi, int n) {
  if (hi <= lo || n < 1) throw std::invalid_argument("band_radiance: bad band");
  const double dl = (hi - lo) / n;
  double s = 0;
  for (int i = 0; i < n; ++i)
    s += planck_spectral_radiance(lo + (i + 0.5) * dl, T);
  return s * dl;
}

double brightness_temperature(double radiance, double lo, double hi) {
  if (radiance <= 0) return 0.0;
  double tlo = 1.0, thi = 4000.0;
  if (radiance >= band_radiance(thi, lo, hi)) return thi;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (tlo + thi);
    if (band_radiance(mid, lo, hi) < radiance)
      tlo = mid;
    else
      thi = mid;
  }
  return 0.5 * (tlo + thi);
}

}  // namespace wfire::scene
