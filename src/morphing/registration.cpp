#include "morphing/registration.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "grid/interp.h"

namespace wfire::morphing {

namespace {

// Objective evaluation (for reporting and the acceptance test).
double objective(const util::Array2D<double>& u,
                 const util::Array2D<double>& u0, const Mapping& T, double c1,
                 double c2, util::Array2D<double>& warped) {
  const int nx = u.nx(), ny = u.ny();
  warp(u0, T, warped);
  double data = 0, reg1 = 0, reg2 = 0;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double e = warped(i, j) - u(i, j);
      data += e * e;
      const double tx = T.tx(i, j), ty = T.ty(i, j);
      reg1 += tx * tx + ty * ty;
      if (i + 1 < nx) {
        const double dx1 = T.tx(i + 1, j) - tx, dy1 = T.ty(i + 1, j) - ty;
        reg2 += dx1 * dx1 + dy1 * dy1;
      }
      if (j + 1 < ny) {
        const double dx2 = T.tx(i, j + 1) - tx, dy2 = T.ty(i, j + 1) - ty;
        reg2 += dx2 * dx2 + dy2 * dy2;
      }
    }
  }
  return (data + c1 * reg1 + c2 * reg2) /
         (static_cast<double>(nx) * ny);
}

// One Gauss-Newton / iterative-warping sweep: linearize
// u0(x + T + dT) ~ u0(x + T) + grad(u0w) . dT and solve pointwise for the
// increment that cancels the residual, with Tikhonov damping alpha.
void gauss_newton_sweep(const util::Array2D<double>& u,
                        const util::Array2D<double>& warped, double alpha,
                        double max_step, Mapping& T) {
  const int nx = u.nx(), ny = u.ny();
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double e = warped(i, j) - u(i, j);
      const double gx =
          0.5 * (warped.at_clamped(i + 1, j) - warped.at_clamped(i - 1, j));
      const double gy =
          0.5 * (warped.at_clamped(i, j + 1) - warped.at_clamped(i, j - 1));
      const double denom = gx * gx + gy * gy + alpha;
      double dx = -e * gx / denom;
      double dy = -e * gy / denom;
      // The linearization is only valid within about a pixel.
      dx = std::clamp(dx, -max_step, max_step);
      dy = std::clamp(dy, -max_step, max_step);
      T.tx(i, j) += dx;
      T.ty(i, j) += dy;
    }
  }
}

// Diffusion smoothing of the mapping (the ||grad T||^2 term): a weighted
// Jacobi step toward the 4-neighbor average.
void smooth_mapping(double lambda, Mapping& T, Mapping& scratch) {
  const int nx = T.nx(), ny = T.ny();
  if (!scratch.same_shape(T)) scratch = Mapping(nx, ny);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double ax = 0.25 * (T.tx.at_clamped(i - 1, j) +
                                T.tx.at_clamped(i + 1, j) +
                                T.tx.at_clamped(i, j - 1) +
                                T.tx.at_clamped(i, j + 1));
      const double ay = 0.25 * (T.ty.at_clamped(i - 1, j) +
                                T.ty.at_clamped(i + 1, j) +
                                T.ty.at_clamped(i, j - 1) +
                                T.ty.at_clamped(i, j + 1));
      scratch.tx(i, j) = (1.0 - lambda) * T.tx(i, j) + lambda * ax;
      scratch.ty(i, j) = (1.0 - lambda) * T.ty(i, j) + lambda * ay;
    }
  }
  std::swap(T.tx, scratch.tx);
  std::swap(T.ty, scratch.ty);
}

// Shrinkage toward zero displacement (the ||T||^2 term).
void shrink_mapping(double factor, Mapping& T) {
  if (factor >= 1.0) return;
  for (double& v : T.tx) v *= factor;
  for (double& v : T.ty) v *= factor;
}

// Exhaustive integer-shift search at the coarsest level: returns the
// constant translation minimizing the SSD between u and shifted u0. This
// anchors the multiscale refinement so large displacements cannot strand
// the Gauss-Newton iteration in a local minimum.
void global_shift_search(const util::Array2D<double>& u,
                         const util::Array2D<double>& u0, Mapping& T) {
  const int nx = u.nx(), ny = u.ny();
  const int range_x = nx / 3, range_y = ny / 3;
  double best = 1e300;
  int best_dx = 0, best_dy = 0;
  for (int dy = -range_y; dy <= range_y; ++dy) {
    for (int dx = -range_x; dx <= range_x; ++dx) {
      double ssd = 0;
      for (int j = 0; j < ny; ++j)
        for (int i = 0; i < nx; ++i) {
          const double e = u0.at_clamped(i + dx, j + dy) - u(i, j);
          ssd += e * e;
        }
      if (ssd < best) {
        best = ssd;
        best_dx = dx;
        best_dy = dy;
      }
    }
  }
  T.tx.fill(static_cast<double>(best_dx));
  T.ty.fill(static_cast<double>(best_dy));
}

// Upsample a mapping to (nx, ny), scaling displacements with the resolution.
Mapping upsample(const Mapping& coarse, int nx, int ny) {
  Mapping fine(nx, ny);
  const double sx = static_cast<double>(coarse.nx() - 1) / std::max(nx - 1, 1);
  const double sy = static_cast<double>(coarse.ny() - 1) / std::max(ny - 1, 1);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      const double ci = i * sx, cj = j * sy;
      fine.tx(i, j) = grid::bilinear_frac(coarse.tx, ci, cj) / sx;
      fine.ty(i, j) = grid::bilinear_frac(coarse.ty, ci, cj) / sy;
    }
  return fine;
}

// Gaussian-smoothed box pyramid of u (level 0 = finest), at most
// `max_levels` deep; the coarsest level keeps >= 16 px so compact features
// are not aliased away.
std::vector<util::Array2D<double>> smoothed_pyramid(
    const util::Array2D<double>& u, int max_levels, double sigma) {
  std::vector<util::Array2D<double>> p{u};
  while (static_cast<int>(p.size()) < max_levels && p.back().nx() >= 32 &&
         p.back().ny() >= 32)
    p.push_back(downsample2(p.back()));
  for (util::Array2D<double>& level : p) level = gaussian_smooth(level, sigma);
  return p;
}

}  // namespace

util::Array2D<double> downsample2(const util::Array2D<double>& u) {
  const int nx = std::max(u.nx() / 2, 1), ny = std::max(u.ny() / 2, 1);
  util::Array2D<double> out(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      out(i, j) = 0.25 * (u.at_clamped(2 * i, 2 * j) +
                          u.at_clamped(2 * i + 1, 2 * j) +
                          u.at_clamped(2 * i, 2 * j + 1) +
                          u.at_clamped(2 * i + 1, 2 * j + 1));
  return out;
}

util::Array2D<double> gaussian_smooth(const util::Array2D<double>& u,
                                      double sigma) {
  if (sigma <= 0) return u;
  const int radius = std::max(1, static_cast<int>(std::ceil(2.0 * sigma)));
  std::vector<double> k(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0;
  for (int i = -radius; i <= radius; ++i) {
    k[i + radius] = std::exp(-0.5 * (i * i) / (sigma * sigma));
    sum += k[i + radius];
  }
  for (double& v : k) v /= sum;

  util::Array2D<double> tmp(u.nx(), u.ny()), out(u.nx(), u.ny());
  for (int j = 0; j < u.ny(); ++j)
    for (int i = 0; i < u.nx(); ++i) {
      double s = 0;
      for (int a = -radius; a <= radius; ++a)
        s += k[a + radius] * u.at_clamped(i + a, j);
      tmp(i, j) = s;
    }
  for (int j = 0; j < u.ny(); ++j)
    for (int i = 0; i < u.nx(); ++i) {
      double s = 0;
      for (int a = -radius; a <= radius; ++a)
        s += k[a + radius] * tmp.at_clamped(i, j + a);
      out(i, j) = s;
    }
  return out;
}

RegistrationReference::RegistrationReference(util::Array2D<double> u0_in,
                                             const RegistrationOptions& opt)
    : u0(std::move(u0_in)),
      levels(smoothed_pyramid(u0, opt.max_levels, opt.presmooth_sigma)) {}

RegistrationResult register_fields(const util::Array2D<double>& u,
                                   const RegistrationReference& ref,
                                   const RegistrationOptions& opt) {
  const util::Array2D<double>& u0 = ref.u0;
  if (!u.same_shape(u0))
    throw std::invalid_argument("register_fields: shape mismatch");
  // u's pyramid is as deep as the reference's (equal for equal options).
  const std::vector<util::Array2D<double>> pu = smoothed_pyramid(
      u, static_cast<int>(ref.levels.size()), opt.presmooth_sigma);

  RegistrationResult res;
  res.levels = static_cast<int>(pu.size());
  Mapping T;

  for (int level = res.levels - 1; level >= 0; --level) {
    const util::Array2D<double>& ul = pu[level];
    const util::Array2D<double>& u0l = ref.levels[level];
    const int nx = ul.nx(), ny = ul.ny();
    if (level == res.levels - 1) {
      T = Mapping(nx, ny);
      global_shift_search(ul, u0l, T);
    } else {
      T = upsample(T, nx, ny);
    }

    // Gauss-Newton damping: scaled by the image dynamic range so the
    // behavior is amplitude-invariant.
    double range = 0;
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) range = std::max(range, std::abs(ul(i, j)));
    const double alpha = std::max(1e-12, 1e-4 * range * range);
    const double lambda = std::min(0.45, opt.c2);
    const double shrink = 1.0 / (1.0 + opt.c1);

    util::Array2D<double> warped(nx, ny);
    Mapping scratch(nx, ny);
    double prev = objective(ul, u0l, T, opt.c1, opt.c2, warped);
    for (int it = 0; it < opt.iters_per_level; ++it) {
      gauss_newton_sweep(ul, warped, alpha, opt.initial_step, T);
      smooth_mapping(lambda, T, scratch);
      smooth_mapping(lambda, T, scratch);
      shrink_mapping(shrink, T);
      const double J = objective(ul, u0l, T, opt.c1, opt.c2, warped);
      ++res.iterations;
      if (prev - J < opt.tol * std::max(prev, 1e-300) && it > 4) break;
      prev = J;
    }
  }

  // Final metrics on the unsmoothed finest level.
  util::Array2D<double> warped(u.nx(), u.ny());
  res.objective = objective(u, u0, T, opt.c1, opt.c2, warped);
  double data = 0;
  for (int j = 0; j < u.ny(); ++j)
    for (int i = 0; i < u.nx(); ++i) {
      const double e = warped(i, j) - u(i, j);
      data += e * e;
    }
  res.data_term = data / (static_cast<double>(u.nx()) * u.ny());
  res.T = std::move(T);
  return res;
}

}  // namespace wfire::morphing
