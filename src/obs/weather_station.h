// Weather-station data path (paper Sec. 3.1): a station reports "its
// location, a timestamp, temperature, wind velocity, and humidity". The
// operator (a) locates the containing grid cell from the location by linear
// interpolation, (b) samples the model fields at the station by biquadratic
// interpolation, (c) checks whether a fireline is in the cell or neighboring
// ones (is the station's reading a fire signal?), and (d) can update the
// model temperature field directly, which is the paper's current state
// ("the state vector is updated for the temperature and returned"),
// pending full synthetic-data assimilation.
#pragma once

#include "grid/interp.h"
#include "util/array2d.h"

namespace wfire::obs {

struct StationReport {
  double x = 0, y = 0;       // location [m]
  double time = 0;           // timestamp [s]
  double temperature = 300;  // [K]
  double wind_u = 0;         // [m/s]
  double wind_v = 0;
  double humidity = 0.3;     // relative [0,1]
};

struct StationComparison {
  bool inside = false;        // station inside the model domain?
  grid::CellLocation cell;    // containing cell
  double model_temperature = 0;
  double model_wind_u = 0;
  double model_wind_v = 0;
  double model_humidity = 0;
  bool fireline_nearby = false;  // a burning node at or next to the cell
  // Innovations (observed - model).
  double d_temperature = 0, d_wind_u = 0, d_wind_v = 0, d_humidity = 0;
};

class WeatherStationOperator {
 public:
  explicit WeatherStationOperator(const grid::Grid2D& g) : grid_(g) {}

  // Compares a report against model fields (all node fields on the grid).
  [[nodiscard]] StationComparison compare(
      const StationReport& rep, const util::Array2D<double>& temperature,
      const util::Array2D<double>& wind_u, const util::Array2D<double>& wind_v,
      const util::Array2D<double>& humidity,
      const util::Array2D<double>& psi) const;

  // Direct insertion: nudges the model temperature toward the observation
  // with weight in [0, 1], distributed over the 3x3 biquadratic stencil with
  // the interpolation weights (the adjoint of the sampling).
  void nudge_temperature(const StationReport& rep,
                         const StationComparison& cmp, double weight,
                         util::Array2D<double>& temperature) const;

  [[nodiscard]] const grid::Grid2D& grid() const { return grid_; }

 private:
  grid::Grid2D grid_;
};

}  // namespace wfire::obs
