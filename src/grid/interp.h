// Interpolation on node-centered grids. The paper's weather-station operator
// locates the containing cell "using linear interpolation of the location"
// and samples model fields with "biquadratic interpolation" (Sec. 3.1); both
// operations live here, together with the bilinear sampling used by the warp
// and the wind coupling.
#pragma once

#include <algorithm>
#include <cstddef>

#include "grid/grid2d.h"
#include "util/array2d.h"
#include "util/assert.h"

namespace wfire::grid {

// Location of a physical point within a grid: cell indices and unit-square
// fractions. Clamped to the valid interior so samples never read outside.
struct CellLocation {
  int i = 0, j = 0;       // lower-left node of the containing cell
  double tx = 0, ty = 0;  // fractions in [0, 1]
  bool inside = false;    // was (px, py) inside the grid before clamping?
};

[[nodiscard]] CellLocation locate(const Grid2D& g, double px, double py);

// Bilinear sample of a node field at a physical point (clamped extension).
[[nodiscard]] double bilinear(const Grid2D& g,
                              const util::Array2D<double>& field, double px,
                              double py);

// Biquadratic (3x3 Lagrange) sample; second-order-accurate node stencil
// centered on the node nearest to the sample point.
[[nodiscard]] double biquadratic(const Grid2D& g,
                                 const util::Array2D<double>& field, double px,
                                 double py);

// One bilinear sample point (fi, fj), in fractional index coordinates, of
// an nx x ny node field (clamped extension): the lower-left node of the
// containing cell and its four weights. Built once per point, it samples
// any field of that shape, e.g. both components of a mapping.
struct BilinearStencil {
  std::size_t off;          // j * nx + i of the lower-left node (i, j)
  std::size_t nx;           // row stride
  double w00, w10, w01, w11;

  BilinearStencil(int nx_nodes, int ny_nodes, double fi, double fj)
      : nx(static_cast<std::size_t>(nx_nodes)) {
    WFIRE_ASSERT(nx_nodes >= 2 && ny_nodes >= 2,
                 "bilinear sampling needs >= 2 nodes per axis");
    fi = std::clamp(fi, 0.0, static_cast<double>(nx_nodes - 1));
    fj = std::clamp(fj, 0.0, static_cast<double>(ny_nodes - 1));
    const int i = std::min(static_cast<int>(fi), nx_nodes - 2);
    const int j = std::min(static_cast<int>(fj), ny_nodes - 2);
    const double tx = fi - i;
    const double ty = fj - j;
    off = static_cast<std::size_t>(j) * nx + static_cast<std::size_t>(i);
    w00 = (1 - tx) * (1 - ty);
    w10 = tx * (1 - ty);
    w01 = (1 - tx) * ty;
    w11 = tx * ty;
  }

  // Sample of the field whose row-major data starts at f.
  [[nodiscard]] double apply(const double* f) const {
    const double* p = f + off;
    return w00 * p[0] + w10 * p[1] + w01 * p[nx] + w11 * p[nx + 1];
  }
};

}  // namespace wfire::grid
