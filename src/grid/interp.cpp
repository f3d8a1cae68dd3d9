#include "grid/interp.h"

#include <algorithm>
#include <cmath>

namespace wfire::grid {

CellLocation locate(const Grid2D& g, double px, double py) {
  CellLocation loc;
  loc.inside = g.contains_point(px, py);
  double fi = g.fx(px);
  double fj = g.fy(py);
  fi = std::clamp(fi, 0.0, static_cast<double>(g.nx - 1));
  fj = std::clamp(fj, 0.0, static_cast<double>(g.ny - 1));
  loc.i = std::min(static_cast<int>(fi), g.nx - 2);
  loc.j = std::min(static_cast<int>(fj), g.ny - 2);
  loc.tx = fi - loc.i;
  loc.ty = fj - loc.j;
  return loc;
}

double bilinear(const Grid2D& g, const util::Array2D<double>& field, double px,
                double py) {
  const CellLocation c = locate(g, px, py);
  const double f00 = field(c.i, c.j);
  const double f10 = field(c.i + 1, c.j);
  const double f01 = field(c.i, c.j + 1);
  const double f11 = field(c.i + 1, c.j + 1);
  return (1 - c.tx) * (1 - c.ty) * f00 + c.tx * (1 - c.ty) * f10 +
         (1 - c.tx) * c.ty * f01 + c.tx * c.ty * f11;
}

namespace {
// 1-D quadratic Lagrange weights for offset t in [-1, 1] relative to the
// center node of a 3-point stencil.
inline void quad_weights(double t, double w[3]) {
  w[0] = 0.5 * t * (t - 1.0);
  w[1] = 1.0 - t * t;
  w[2] = 0.5 * t * (t + 1.0);
}
}  // namespace

double biquadratic(const Grid2D& g, const util::Array2D<double>& field,
                   double px, double py) {
  // Center the 3x3 stencil on the nearest node, clamped one off the border.
  double fi = std::clamp(g.fx(px), 0.0, static_cast<double>(g.nx - 1));
  double fj = std::clamp(g.fy(py), 0.0, static_cast<double>(g.ny - 1));
  const int ic = std::clamp(static_cast<int>(std::lround(fi)), 1, g.nx - 2);
  const int jc = std::clamp(static_cast<int>(std::lround(fj)), 1, g.ny - 2);
  const double tx = fi - ic;  // in [-1, 1] after clamping
  const double ty = fj - jc;
  double wx[3], wy[3];
  quad_weights(tx, wx);
  quad_weights(ty, wy);
  double s = 0;
  for (int b = -1; b <= 1; ++b)
    for (int a = -1; a <= 1; ++a)
      s += wx[a + 1] * wy[b + 1] * field(ic + a, jc + b);
  return s;
}

}  // namespace wfire::grid
