// Synthetic terrain generators and terrain gradients. The spread law's
// d * (grad z . n) term needs a height field; the paper's experiments use
// idealized terrain, reproduced here (flat, uniform slope).
#pragma once

#include "grid/grid2d.h"
#include "util/array2d.h"

namespace wfire::fire {

[[nodiscard]] util::Array2D<double> terrain_flat(const grid::Grid2D& g);

// z = sx * x + sy * y (sx, sy are rise/run slopes).
[[nodiscard]] util::Array2D<double> terrain_slope(const grid::Grid2D& g,
                                                  double sx, double sy);

// Central-difference terrain gradient components.
void terrain_gradient(const grid::Grid2D& g, const util::Array2D<double>& z,
                      util::Array2D<double>& dzdx, util::Array2D<double>& dzdy);

}  // namespace wfire::fire
