#include "obs/weather_station.h"

#include <algorithm>
#include <cmath>

namespace wfire::obs {

StationComparison WeatherStationOperator::compare(
    const StationReport& rep, const util::Array2D<double>& temperature,
    const util::Array2D<double>& wind_u, const util::Array2D<double>& wind_v,
    const util::Array2D<double>& humidity,
    const util::Array2D<double>& psi) const {
  StationComparison cmp;
  cmp.cell = grid::locate(grid_, rep.x, rep.y);
  cmp.inside = cmp.cell.inside;
  if (!cmp.inside) return cmp;

  cmp.model_temperature = grid::biquadratic(grid_, temperature, rep.x, rep.y);
  cmp.model_wind_u = grid::biquadratic(grid_, wind_u, rep.x, rep.y);
  cmp.model_wind_v = grid::biquadratic(grid_, wind_v, rep.x, rep.y);
  cmp.model_humidity = grid::biquadratic(grid_, humidity, rep.x, rep.y);

  // Fireline proximity: any burning node within r cells of the containing
  // cell's nodes.
  constexpr int r = 1;
  for (int dj = -r; dj <= r + 1 && !cmp.fireline_nearby; ++dj)
    for (int di = -r; di <= r + 1; ++di) {
      const int i = std::clamp(cmp.cell.i + di, 0, grid_.nx - 1);
      const int j = std::clamp(cmp.cell.j + dj, 0, grid_.ny - 1);
      if (psi(i, j) < 0) {
        cmp.fireline_nearby = true;
        break;
      }
    }

  cmp.d_temperature = rep.temperature - cmp.model_temperature;
  cmp.d_wind_u = rep.wind_u - cmp.model_wind_u;
  cmp.d_wind_v = rep.wind_v - cmp.model_wind_v;
  cmp.d_humidity = rep.humidity - cmp.model_humidity;
  return cmp;
}

void WeatherStationOperator::nudge_temperature(
    const StationReport& rep, const StationComparison& cmp, double weight,
    util::Array2D<double>& temperature) const {
  if (!cmp.inside || weight == 0.0) return;
  // Reconstruct the biquadratic stencil around the nearest node and spread
  // the innovation with the squared-weight profile (adjoint nudging).
  const double fi =
      std::clamp(grid_.fx(rep.x), 0.0, static_cast<double>(grid_.nx - 1));
  const double fj =
      std::clamp(grid_.fy(rep.y), 0.0, static_cast<double>(grid_.ny - 1));
  const int ic = std::clamp(static_cast<int>(std::lround(fi)), 1, grid_.nx - 2);
  const int jc = std::clamp(static_cast<int>(std::lround(fj)), 1, grid_.ny - 2);
  const double tx = fi - ic, ty = fj - jc;
  const double wx[3] = {0.5 * tx * (tx - 1.0), 1.0 - tx * tx,
                        0.5 * tx * (tx + 1.0)};
  const double wy[3] = {0.5 * ty * (ty - 1.0), 1.0 - ty * ty,
                        0.5 * ty * (ty + 1.0)};
  double wsum = 0;
  for (int b = 0; b < 3; ++b)
    for (int a = 0; a < 3; ++a) {
      const double w = wx[a] * wy[b];
      wsum += w * w;
    }
  if (wsum <= 0) return;
  const double alpha = weight * cmp.d_temperature / wsum;
  for (int b = -1; b <= 1; ++b)
    for (int a = -1; a <= 1; ++a)
      temperature(ic + a, jc + b) += alpha * wx[a + 1] * wy[b + 1];
}

}  // namespace wfire::obs
