// Uniform node-centered 2-D grid geometry. Fields live on nodes (i, j) at
// positions (x0 + i*dx, y0 + j*dy). The fire mesh of the paper is such a
// grid with dx = dy = 6 m.
#pragma once

#include <stdexcept>

namespace wfire::grid {

struct Grid2D {
  int nx = 0, ny = 0;      // number of nodes in x and y
  double x0 = 0, y0 = 0;   // position of node (0, 0)
  double dx = 1, dy = 1;   // node spacing [m]

  Grid2D() = default;
  Grid2D(int nx_, int ny_, double dx_, double dy_, double x0_ = 0,
         double y0_ = 0)
      : nx(nx_), ny(ny_), x0(x0_), y0(y0_), dx(dx_), dy(dy_) {
    if (nx_ < 2 || ny_ < 2 || dx_ <= 0 || dy_ <= 0)
      throw std::invalid_argument("Grid2D: need >= 2 nodes, positive spacing");
  }

  [[nodiscard]] double x(int i) const { return x0 + i * dx; }
  [[nodiscard]] double y(int j) const { return y0 + j * dy; }

  [[nodiscard]] double width() const { return (nx - 1) * dx; }
  [[nodiscard]] double height() const { return (ny - 1) * dy; }

  [[nodiscard]] bool contains_point(double px, double py) const {
    return px >= x0 && px <= x0 + width() && py >= y0 && py <= y0 + height();
  }

  // Fractional index of a physical point; callers clamp as needed.
  [[nodiscard]] double fx(double px) const { return (px - x0) / dx; }
  [[nodiscard]] double fy(double py) const { return (py - y0) / dy; }
};

}  // namespace wfire::grid
