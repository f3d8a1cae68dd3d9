#include "levelset/initialize.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wfire::levelset {

namespace {
double circle_sdf(const CircleIgnition& c, double px, double py) {
  return std::hypot(px - c.cx, py - c.cy) - c.r;
}

double line_sdf(const LineIgnition& l, double px, double py) {
  // Distance to segment, minus the half-width (capsule SDF).
  const double vx = l.x2 - l.x1, vy = l.y2 - l.y1;
  const double wx = px - l.x1, wy = py - l.y1;
  const double len2 = vx * vx + vy * vy;
  const double t = len2 > 0 ? std::clamp((wx * vx + wy * vy) / len2, 0.0, 1.0)
                            : 0.0;
  const double dx = wx - t * vx, dy = wy - t * vy;
  return std::hypot(dx, dy) - l.w;
}
}  // namespace

double signed_distance(const Ignition& ign, double px, double py) {
  return std::visit(
      [&](const auto& shape) -> double {
        using T = std::decay_t<decltype(shape)>;
        if constexpr (std::is_same_v<T, CircleIgnition>)
          return circle_sdf(shape, px, py);
        else
          return line_sdf(shape, px, py);
      },
      ign);
}

double ignition_time(const Ignition& ign) {
  return std::visit([](const auto& shape) { return shape.time; }, ign);
}

void validate(const Ignition& ign) {
  bool ok = true;
  for_each_param(ign, [&ok](double v, ParamRole role) {
    ok = ok && std::isfinite(v) && (role != ParamRole::kSize || v > 0);
  });
  if (!ok) throw std::invalid_argument("Ignition: non-finite or size <= 0");
}

Ignition shifted(const Ignition& ign, double dx, double dy) {
  Ignition out = ign;
  for_each_param(out, [dx, dy](double& v, ParamRole role) {
    if (role == ParamRole::kX) v += dx;
    if (role == ParamRole::kY) v += dy;
  });
  return out;
}

void initialize_signed_distance(const grid::Grid2D& g,
                                const std::vector<Ignition>& ignitions,
                                util::Array2D<double>& psi) {
  psi = util::Array2D<double>(g.nx, g.ny);
  const double far = std::max(g.width(), g.height()) + g.dx;
  for (int j = 0; j < g.ny; ++j) {
    for (int i = 0; i < g.nx; ++i) {
      double d = far;
      for (const Ignition& ign : ignitions)
        d = std::min(d, signed_distance(ign, g.x(i), g.y(j)));
      psi(i, j) = d;
    }
  }
}

}  // namespace wfire::levelset
