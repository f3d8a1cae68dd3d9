#include "fire/fuel.h"

#include <stdexcept>

namespace wfire::fire {

const std::vector<FuelCategory>& fuel_catalog() {
  //                     name                    R0      a     b     d    Smax   w0    tau     h       M     latent
  static const std::vector<FuelCategory> catalog = {
      {"short_grass",          0.030, 0.800, 1.20, 0.30, 3.00, 0.35,   20.0, 1.74e7, 0.06, 0.12},
      {"timber_grass",         0.025, 0.600, 1.20, 0.30, 2.20, 0.90,   35.0, 1.74e7, 0.08, 0.14},
      {"tall_grass",           0.035, 0.900, 1.25, 0.30, 3.50, 0.70,   25.0, 1.74e7, 0.07, 0.13},
      {"chaparral",            0.020, 0.450, 1.30, 0.35, 1.80, 3.50,  120.0, 1.86e7, 0.10, 0.18},
      {"brush",                0.015, 0.350, 1.25, 0.30, 1.20, 1.20,   90.0, 1.80e7, 0.10, 0.17},
      {"dormant_brush",        0.015, 0.380, 1.25, 0.30, 1.30, 1.60,  110.0, 1.80e7, 0.10, 0.17},
      {"southern_rough",       0.018, 0.400, 1.25, 0.30, 1.40, 1.10,  100.0, 1.80e7, 0.12, 0.20},
      {"closed_timber_litter", 0.005, 0.120, 1.15, 0.20, 0.35, 0.80,  400.0, 1.90e7, 0.12, 0.20},
      {"hardwood_litter",      0.006, 0.140, 1.15, 0.20, 0.40, 0.90,  350.0, 1.90e7, 0.14, 0.22},
      {"timber_understory",    0.010, 0.250, 1.20, 0.25, 0.90, 2.50,  300.0, 1.90e7, 0.12, 0.20},
      {"light_slash",          0.012, 0.220, 1.20, 0.25, 0.80, 4.00,  500.0, 1.95e7, 0.15, 0.22},
      {"medium_slash",         0.010, 0.200, 1.20, 0.25, 0.70, 7.00,  700.0, 1.95e7, 0.15, 0.22},
      {"heavy_slash",          0.008, 0.180, 1.20, 0.25, 0.60, 13.0, 1000.0, 1.95e7, 0.15, 0.22},
  };
  return catalog;
}

FuelMap uniform_fuel(int nx, int ny, int category) {
  if (category < 0 ||
      category >= static_cast<int>(fuel_catalog().size()))
    throw std::invalid_argument("uniform_fuel: bad category index");
  FuelMap map;
  map.index = util::Array2D<int>(nx, ny, category);
  return map;
}

}  // namespace wfire::fire
