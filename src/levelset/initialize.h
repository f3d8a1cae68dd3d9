// Level set initialization. The paper initializes psi to the signed distance
// from the fireline; ignitions in the experiments are circles and line
// segments (Fig. 1: "two line ignitions and one circle ignition").
#pragma once

#include <type_traits>
#include <variant>
#include <vector>

#include "grid/grid2d.h"
#include "util/array2d.h"

namespace wfire::levelset {

// Circular ignition: burning disc of radius r centered at (cx, cy).
struct CircleIgnition {
  double cx = 0, cy = 0, r = 0;
  double time = 0;  // ignition start time [s]
};

// Line ignition: segment from (x1,y1) to (x2,y2) with half-width w
// (a burning "capsule", matching how drip-torch lines are modeled).
struct LineIgnition {
  double x1 = 0, y1 = 0, x2 = 0, y2 = 0, w = 0;
  double time = 0;
};

using Ignition = std::variant<CircleIgnition, LineIgnition>;

// The ordered parameter list of each shape, the one place that names a
// shape's fields: calls f(param, role) for each parameter in list order,
// with `param` a reference into the shape (const when the shape is).
// Checkpoint records, product keys, shifts and the ignition rule walk it.
enum class ParamRole { kX, kY, kSize, kTime };

template <class Shape, class F>
void for_each_param(Shape& s, F&& f) {
  using R = ParamRole;
  if constexpr (std::is_same_v<std::remove_const_t<Shape>, CircleIgnition>) {
    f(s.cx, R::kX), f(s.cy, R::kY), f(s.r, R::kSize), f(s.time, R::kTime);
  } else if constexpr (std::is_same_v<std::remove_const_t<Shape>,
                                      LineIgnition>) {
    f(s.x1, R::kX), f(s.y1, R::kY), f(s.x2, R::kX), f(s.y2, R::kY);
    f(s.w, R::kSize), f(s.time, R::kTime);
  } else {  // an Ignition: the list of its shape
    std::visit([&f](auto& shape) { for_each_param(shape, f); }, s);
  }
}

// The ignition rule: throws std::invalid_argument unless every parameter
// is finite and the size (circle radius, line half-width) is > 0.
void validate(const Ignition& ign);

// The shape translated by (dx, dy): dx added to every kX parameter, dy to
// every kY parameter.
[[nodiscard]] Ignition shifted(const Ignition& ign, double dx, double dy);

// Signed distance from a point to the boundary of one ignition shape
// (negative inside = burning).
[[nodiscard]] double signed_distance(const Ignition& ign, double px,
                                     double py);

// psi(x) = min over shapes of the signed distance (union of burning areas).
// With no shapes, returns +large everywhere (nothing burning).
void initialize_signed_distance(const grid::Grid2D& g,
                                const std::vector<Ignition>& ignitions,
                                util::Array2D<double>& psi);

// Ignition time of each shape, or +inf where no shape covers the domain;
// used to stage delayed ignitions.
[[nodiscard]] double ignition_time(const Ignition& ign);

}  // namespace wfire::levelset
