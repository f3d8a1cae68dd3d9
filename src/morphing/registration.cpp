#include "morphing/registration.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "grid/interp.h"

namespace wfire::morphing {

namespace {

// Objective evaluation (for reporting and the acceptance test); fills
// warped = u0 o (I + T) on the way.
double objective(const util::Array2D<double>& u,
                 const util::Array2D<double>& u0, const Mapping& T, double c1,
                 double c2, util::Array2D<double>& warped) {
  const int nx = u.nx(), ny = u.ny();
  double data = 0, reg1 = 0, reg2 = 0;
  for (int j = 0; j < ny; ++j) {
    const bool has_up = j + 1 < ny;
    const double* ur = u.row(j);
    const double* txr = T.tx.row(j);
    const double* tyr = T.ty.row(j);
    const double* txu = T.tx.row(has_up ? j + 1 : j);
    const double* tyu = T.ty.row(has_up ? j + 1 : j);
    double* wr = warped.row(j);
    for (int i = 0; i < nx; ++i) {
      const double tx = txr[i], ty = tyr[i];
      wr[i] = grid::BilinearStencil(nx, ny, i + tx, j + ty).apply(u0.data());
      const double e = wr[i] - ur[i];
      data += e * e;
      reg1 += tx * tx + ty * ty;
      if (i + 1 < nx) {
        const double dx1 = txr[i + 1] - tx, dy1 = tyr[i + 1] - ty;
        reg2 += dx1 * dx1 + dy1 * dy1;
      }
      if (has_up) {
        const double dx2 = txu[i] - tx, dy2 = tyu[i] - ty;
        reg2 += dx2 * dx2 + dy2 * dy2;
      }
    }
  }
  return (data + c1 * reg1 + c2 * reg2) /
         (static_cast<double>(nx) * ny);
}

// One Gauss-Newton / iterative-warping sweep: linearize
// u0(x + T + dT) ~ u0(x + T) + grad(u0w) . dT and solve pointwise for the
// increment that cancels the residual, with Tikhonov damping alpha. The
// gradient is centred, one-sided at the edges (the clamped extension).
void gauss_newton_sweep(const util::Array2D<double>& u,
                        const util::Array2D<double>& warped, double alpha,
                        double max_step, Mapping& T) {
  const int nx = u.nx(), ny = u.ny();
  for (int j = 0; j < ny; ++j) {
    const double* w = warped.row(j);
    const double* ws = warped.row(std::max(j - 1, 0));
    const double* wn = warped.row(std::min(j + 1, ny - 1));
    const double* ur = u.row(j);
    double* txr = T.tx.row(j);
    double* tyr = T.ty.row(j);
    const auto update = [&](int i, double gx) {
      const double e = w[i] - ur[i];
      const double gy = 0.5 * (wn[i] - ws[i]);
      const double denom = gx * gx + gy * gy + alpha;
      // The linearization is only valid within about a pixel.
      txr[i] += std::clamp(-e * gx / denom, -max_step, max_step);
      tyr[i] += std::clamp(-e * gy / denom, -max_step, max_step);
    };
    update(0, 0.5 * (w[1] - w[0]));
    for (int i = 1; i < nx - 1; ++i) update(i, 0.5 * (w[i + 1] - w[i - 1]));
    update(nx - 1, 0.5 * (w[nx - 1] - w[nx - 2]));
  }
}

// One weighted Jacobi step of one mapping component toward its 4-neighbor
// average (clamped extension): out = (1 - lambda) in + lambda avg.
void smooth_component(double lambda, const util::Array2D<double>& in,
                      util::Array2D<double>& out) {
  const int nx = in.nx(), ny = in.ny();
  const double keep = 1.0 - lambda;
  for (int j = 0; j < ny; ++j) {
    const double* c = in.row(j);
    const double* s = in.row(std::max(j - 1, 0));
    const double* n = in.row(std::min(j + 1, ny - 1));
    double* o = out.row(j);
    const auto blend = [&](int i, double west, double east) {
      o[i] = keep * c[i] + lambda * (0.25 * (west + east + s[i] + n[i]));
    };
    blend(0, c[0], c[1]);
    for (int i = 1; i < nx - 1; ++i) blend(i, c[i - 1], c[i + 1]);
    blend(nx - 1, c[nx - 2], c[nx - 1]);
  }
}

// Diffusion smoothing of the mapping (the ||grad T||^2 term).
void smooth_mapping(double lambda, Mapping& T, Mapping& scratch) {
  if (!scratch.same_shape(T)) scratch = Mapping(T.nx(), T.ny());
  smooth_component(lambda, T.tx, scratch.tx);
  smooth_component(lambda, T.ty, scratch.ty);
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
      // Columns i < lo read u0's column 0 and i >= hi its last column.
      const int lo = std::clamp(-dx, 0, nx);
      const int hi = std::clamp(nx - dx, lo, nx);
      double ssd = 0;
      for (int j = 0; j < ny; ++j) {
        const double* a = u0.row(std::clamp(j + dy, 0, ny - 1));
        const double* b = u.row(j);
        const auto add = [&](double v, int i) {
          const double e = v - b[i];
          ssd += e * e;
        };
        int i = 0;
        for (; i < lo; ++i) add(a[0], i);
        for (; i < hi; ++i) add(a[i + dx], i);
        for (; i < nx; ++i) add(a[nx - 1], i);
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
  for (int j = 0; j < ny; ++j) {
    double* fx = fine.tx.row(j);
    double* fy = fine.ty.row(j);
    for (int i = 0; i < nx; ++i) {
      const grid::BilinearStencil s(coarse.nx(), coarse.ny(), i * sx, j * sy);
      fx[i] = s.apply(coarse.tx.data()) / sx;
      fy[i] = s.apply(coarse.ty.data()) / sy;
    }
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
  const int ilast = u.nx() - 1, jlast = u.ny() - 1;
  util::Array2D<double> out(nx, ny);
  for (int j = 0; j < ny; ++j) {
    const double* r0 = u.row(std::min(2 * j, jlast));
    const double* r1 = u.row(std::min(2 * j + 1, jlast));
    double* o = out.row(j);
    for (int i = 0; i < nx; ++i) {
      const int i0 = std::min(2 * i, ilast), i1 = std::min(2 * i + 1, ilast);
      o[i] = 0.25 * (r0[i0] + r0[i1] + r1[i0] + r1[i1]);
    }
  }
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

  const int nx = u.nx(), ny = u.ny();
  util::Array2D<double> tmp(nx, ny), out(nx, ny);
  // Along x: taps clamp to the row only within `radius` of either end.
  const int lo = std::min(radius, nx), hi = std::max(lo, nx - radius);
  for (int j = 0; j < ny; ++j) {
    const double* in = u.row(j);
    double* t = tmp.row(j);
    const auto clamped = [&](int i) {
      double s = 0;
      for (int a = -radius; a <= radius; ++a)
        s += k[a + radius] * in[std::clamp(i + a, 0, nx - 1)];
      t[i] = s;
    };
    for (int i = 0; i < lo; ++i) clamped(i);
    for (int i = lo; i < hi; ++i) {
      double s = 0;
      for (int a = -radius; a <= radius; ++a) s += k[a + radius] * in[i + a];
      t[i] = s;
    }
    for (int i = hi; i < nx; ++i) clamped(i);
  }
  // Along y: each tap is a whole (clamped) row, accumulated tap by tap in
  // the same order per pixel.
  for (int j = 0; j < ny; ++j) {
    double* o = out.row(j);
    for (int a = -radius; a <= radius; ++a) {
      const double* t = tmp.row(std::clamp(j + a, 0, ny - 1));
      const double w = k[a + radius];
      for (int i = 0; i < nx; ++i) o[i] += w * t[i];
    }
  }
  return out;
}

RegistrationReference::RegistrationReference(util::Array2D<double> u0_in,
                                             const RegistrationOptions& opt)
    : u0(std::move(u0_in)) {
  check_image(u0, "RegistrationReference");
  levels = smoothed_pyramid(u0, opt.max_levels, opt.presmooth_sigma);
}

RegistrationResult register_fields(const util::Array2D<double>& u,
                                   const RegistrationReference& ref,
                                   const RegistrationOptions& opt) {
  const util::Array2D<double>& u0 = ref.u0;
  if (!u.same_shape(u0))
    throw std::invalid_argument("register_fields: shape mismatch");
  check_image(u, "register_fields");
  // u's pyramid is as deep as the reference's (equal for equal options).
  const std::vector<util::Array2D<double>> pu = smoothed_pyramid(
      u, static_cast<int>(ref.levels.size()), opt.presmooth_sigma);

  RegistrationResult res;
  res.levels = static_cast<int>(pu.size());
  Mapping T;
  // Sized for the level being solved; level 0's warped is then reused for
  // the final metrics.
  util::Array2D<double> warped;
  Mapping scratch;

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
    if (!warped.same_shape(ul)) {
      warped = util::Array2D<double>(nx, ny);
      scratch = Mapping(nx, ny);
    }

    // Gauss-Newton damping: scaled by the image dynamic range so the
    // behavior is amplitude-invariant.
    double range = 0;
    for (const double v : ul) range = std::max(range, std::abs(v));
    const double alpha = std::max(1e-12, 1e-4 * range * range);
    const double lambda = std::min(0.45, opt.c2);
    const double shrink = 1.0 / (1.0 + opt.c1);

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
  res.objective = objective(u, u0, T, opt.c1, opt.c2, warped);
  double data = 0;
  const std::span<const double> wv = warped.span(), uv = u.span();
  for (std::size_t p = 0; p < uv.size(); ++p) {
    const double e = wv[p] - uv[p];
    data += e * e;
  }
  res.data_term = data / (static_cast<double>(u.nx()) * u.ny());
  res.T = std::move(T);
  return res;
}

}  // namespace wfire::morphing
