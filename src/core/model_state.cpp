#include "core/model_state.h"

#include <cmath>
#include <limits>

namespace wfire::core {

la::Vector pack_state(const fire::FireState& s) {
  const std::size_t n = s.psi.size();
  la::Vector v(2 * n);
  const auto psi = s.psi.span();
  const auto tig = s.tig.span();
  for (std::size_t i = 0; i < n; ++i) v[i] = psi[i];
  for (std::size_t i = 0; i < n; ++i) v[n + i] = capped_tig(tig[i]);
  return v;
}

bool burning_centroid(const grid::Grid2D& g, const util::Array2D<double>& psi,
                      double& cx, double& cy) {
  double sx = 0, sy = 0, count = 0;
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i)
      if (psi(i, j) < 0) {
        sx += g.x(i);
        sy += g.y(j);
        count += 1;
      }
  if (count == 0) return false;
  cx = sx / count;
  cy = sy / count;
  return true;
}

double centroid_distance(const grid::Grid2D& g,
                         const util::Array2D<double>& psi_a,
                         const util::Array2D<double>& psi_b) {
  double ax, ay, bx, by;
  if (!burning_centroid(g, psi_a, ax, ay) ||
      !burning_centroid(g, psi_b, bx, by))
    return std::numeric_limits<double>::infinity();
  return std::hypot(ax - bx, ay - by);
}

double symmetric_difference_area(const grid::Grid2D& g,
                                 const util::Array2D<double>& psi_a,
                                 const util::Array2D<double>& psi_b) {
  double cells = 0;
  for (int j = 0; j < g.ny; ++j)
    for (int i = 0; i < g.nx; ++i)
      if ((psi_a(i, j) < 0) != (psi_b(i, j) < 0)) cells += 1;
  return cells * g.dx * g.dy;
}

}  // namespace wfire::core
