// Synthetic terrain generators and terrain gradients. The spread law's
// d * (grad z . n) term needs a height field; the paper's experiments use
// idealized terrain, reproduced here (flat, uniform slope, hill, ridge,
// random smooth hills for property tests).
#pragma once

#include "grid/grid2d.h"
#include "util/array2d.h"
#include "util/rng.h"

namespace wfire::fire {

[[nodiscard]] util::Array2D<double> terrain_flat(const grid::Grid2D& g);

// z = sx * x + sy * y (sx, sy are rise/run slopes).
[[nodiscard]] util::Array2D<double> terrain_slope(const grid::Grid2D& g,
                                                  double sx, double sy);

// Gaussian hill of given peak height and e-folding radius.
[[nodiscard]] util::Array2D<double> terrain_hill(const grid::Grid2D& g,
                                                 double cx, double cy,
                                                 double height, double radius);

// Smooth random terrain: sum of `n` random Gaussian bumps.
[[nodiscard]] util::Array2D<double> terrain_random(const grid::Grid2D& g,
                                                   int n, double height,
                                                   double radius,
                                                   util::Rng& rng);

// Central-difference terrain gradient components.
void terrain_gradient(const grid::Grid2D& g, const util::Array2D<double>& z,
                      util::Array2D<double>& dzdx, util::Array2D<double>& dzdy);

}  // namespace wfire::fire
