// Spatial mappings for the morphing EnKF (paper Sec. 3.3). A Mapping T is a
// displacement field on grid nodes, stored in grid-index units; (I + T)
// sends node (i, j) to the fractional position (i + tx(i,j), j + ty(i,j)).
// Warping composes a field with (I + T) by bilinear sampling (clamped at the
// domain edge, which is the natural extension for signed-distance-like
// fields).
#pragma once

#include "util/array2d.h"

namespace wfire::morphing {

struct Mapping {
  util::Array2D<double> tx, ty;

  Mapping() = default;
  Mapping(int nx, int ny) : tx(nx, ny, 0.0), ty(nx, ny, 0.0) {}

  [[nodiscard]] int nx() const { return tx.nx(); }
  [[nodiscard]] int ny() const { return tx.ny(); }
  [[nodiscard]] bool same_shape(const Mapping& o) const {
    return tx.same_shape(o.tx) && ty.same_shape(o.ty);
  }

  // Max displacement magnitude [grid units].
  [[nodiscard]] double max_norm() const;
};

// Throws std::invalid_argument, naming `who`, unless u has at least 2x2
// nodes and every value is finite: the input contract of the samplers here
// and of the registration (a bilinear cell needs two nodes per axis, and a
// non-finite displacement has no cell at all).
void check_image(const util::Array2D<double>& u, const char* who);

// out(i,j) = u(i + tx(i,j), j + ty(i,j))  — i.e. out = u o (I + T). u and
// both components of T must share one shape and pass check_image.
void warp(const util::Array2D<double>& u, const Mapping& T,
          util::Array2D<double>& out);

// Composition: returns S with (I + S) = (I + T1) o (I + T2), i.e.
// S(x) = T2(x) + T1(x + T2(x)). T1 and T2 must share one shape.
[[nodiscard]] Mapping compose(const Mapping& T1, const Mapping& T2);

// Approximate inverse of (I + T) by under-relaxed fixed-point iteration
// X <- (1-w) X + w (-T(x + X)); the relaxation keeps the iteration
// contractive up to ||grad T|| ~ 1 (the registration's smoothness penalty
// keeps mappings near that regime, but ensemble linear combinations can
// push them to the edge). T's components must share one shape and pass
// check_image.
[[nodiscard]] Mapping invert(const Mapping& T, int iters = 30,
                             double relax = 0.6);

// Max norm of (I+T) o (I+Tinv) - I over the grid [grid units]: how far the
// claimed inverse is from a true inverse (diagnostic).
[[nodiscard]] double inverse_error(const Mapping& T, const Mapping& Tinv);

}  // namespace wfire::morphing
