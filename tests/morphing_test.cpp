// Morphing tests: warp algebra (composition, inversion), registration
// recovery of known displacements across magnitudes, morphing transform
// endpoint identities (the corrected Eq. (1)), and the morphing EnKF moving
// a displaced fire toward the data — the paper's core Sec. 3.3 machinery.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "morphing/menkf.h"
#include "morphing/morph.h"
#include "morphing/registration.h"
#include "morphing/warp.h"
#include "serial_reference.h"
#include "util/omp_compat.h"

using namespace wfire::morphing;
using wfire::util::Array2D;
using wfire::util::Rng;

namespace {

// Smooth blob centered at (cx, cy) in grid units.
Array2D<double> blob(int nx, int ny, double cx, double cy, double radius,
                     double amp = 1.0) {
  Array2D<double> u(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      const double r2 = (i - cx) * (i - cx) + (j - cy) * (j - cy);
      u(i, j) = amp * std::exp(-r2 / (2.0 * radius * radius));
    }
  return u;
}

Mapping constant_mapping(int nx, int ny, double tx, double ty) {
  Mapping T(nx, ny);
  T.tx.fill(tx);
  T.ty.fill(ty);
  return T;
}

double max_field_diff(const Array2D<double>& a, const Array2D<double>& b,
                      int margin) {
  double m = 0;
  for (int j = margin; j < a.ny() - margin; ++j)
    for (int i = margin; i < a.nx() - margin; ++i)
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
  return m;
}

// Encodes u against u0: the registration mapping T and the residual r.
struct Encoded {
  Array2D<double> r;
  Mapping T;
};
Encoded encode(const Array2D<double>& u, const Array2D<double>& u0) {
  Encoded e{Array2D<double>(u.nx(), u.ny()), register_fields(u, u0, {}).T};
  morph_residual(u, u0, invert(e.T), e.r.span());
  return e;
}

// The morphing path's state u_lambda: the decode of [lambda r, lambda T].
Array2D<double> morph_path(const Array2D<double>& u0, const Encoded& e,
                           double lambda) {
  Array2D<double> r = e.r;
  Mapping T = e.T;
  for (double& v : r) v *= lambda;
  for (double& v : T.tx) v *= lambda;
  for (double& v : T.ty) v *= lambda;
  Array2D<double> out;
  morph_decode(u0, r.span(), T, out);
  return out;
}

// The clamped per-sample kernels of the registration and the warps, kept
// as written before the row-pointer rewrite: every read goes through
// at_clamped or the bounds-checked operator(), and every bilinear sample
// clamps, floors and weighs on its own. Registration.
// KernelsMatchClampedReference holds the library's kernels to these bit for
// bit.
namespace clamped_reference {

double bilinear_frac(const Array2D<double>& field, double fi, double fj) {
  fi = std::clamp(fi, 0.0, static_cast<double>(field.nx() - 1));
  fj = std::clamp(fj, 0.0, static_cast<double>(field.ny() - 1));
  const int i = std::min(static_cast<int>(fi), field.nx() - 2);
  const int j = std::min(static_cast<int>(fj), field.ny() - 2);
  const double tx = fi - i;
  const double ty = fj - j;
  return (1 - tx) * (1 - ty) * field(i, j) + tx * (1 - ty) * field(i + 1, j) +
         (1 - tx) * ty * field(i, j + 1) + tx * ty * field(i + 1, j + 1);
}

void warp(const Array2D<double>& u, const Mapping& T, Array2D<double>& out) {
  if (!out.same_shape(u)) out = Array2D<double>(u.nx(), u.ny());
  for (int j = 0; j < u.ny(); ++j)
    for (int i = 0; i < u.nx(); ++i)
      out(i, j) = bilinear_frac(u, i + T.tx(i, j), j + T.ty(i, j));
}

Mapping compose(const Mapping& T1, const Mapping& T2) {
  Mapping S(T1.nx(), T1.ny());
  for (int j = 0; j < S.ny(); ++j)
    for (int i = 0; i < S.nx(); ++i) {
      const double xi = i + T2.tx(i, j);
      const double yj = j + T2.ty(i, j);
      S.tx(i, j) = T2.tx(i, j) + bilinear_frac(T1.tx, xi, yj);
      S.ty(i, j) = T2.ty(i, j) + bilinear_frac(T1.ty, xi, yj);
    }
  return S;
}

Mapping invert(const Mapping& T, int iters = 30, double relax = 0.6) {
  Mapping inv(T.nx(), T.ny());
  Mapping next(T.nx(), T.ny());
  for (int it = 0; it < iters; ++it) {
    for (int j = 0; j < T.ny(); ++j)
      for (int i = 0; i < T.nx(); ++i) {
        const double xi = i + inv.tx(i, j);
        const double yj = j + inv.ty(i, j);
        next.tx(i, j) = (1.0 - relax) * inv.tx(i, j) -
                        relax * bilinear_frac(T.tx, xi, yj);
        next.ty(i, j) = (1.0 - relax) * inv.ty(i, j) -
                        relax * bilinear_frac(T.ty, xi, yj);
      }
    std::swap(inv, next);
  }
  return inv;
}

double objective(const Array2D<double>& u, const Array2D<double>& u0,
                 const Mapping& T, double c1, double c2,
                 Array2D<double>& warped) {
  const int nx = u.nx(), ny = u.ny();
  clamped_reference::warp(u0, T, warped);
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
  return (data + c1 * reg1 + c2 * reg2) / (static_cast<double>(nx) * ny);
}

void gauss_newton_sweep(const Array2D<double>& u, const Array2D<double>& warped,
                        double alpha, double max_step, Mapping& T) {
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
      dx = std::clamp(dx, -max_step, max_step);
      dy = std::clamp(dy, -max_step, max_step);
      T.tx(i, j) += dx;
      T.ty(i, j) += dy;
    }
  }
}

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

void shrink_mapping(double factor, Mapping& T) {
  if (factor >= 1.0) return;
  for (double& v : T.tx) v *= factor;
  for (double& v : T.ty) v *= factor;
}

void global_shift_search(const Array2D<double>& u, const Array2D<double>& u0,
                         Mapping& T) {
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

Mapping upsample(const Mapping& coarse, int nx, int ny) {
  Mapping fine(nx, ny);
  const double sx = static_cast<double>(coarse.nx() - 1) / std::max(nx - 1, 1);
  const double sy = static_cast<double>(coarse.ny() - 1) / std::max(ny - 1, 1);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      const double ci = i * sx, cj = j * sy;
      fine.tx(i, j) = bilinear_frac(coarse.tx, ci, cj) / sx;
      fine.ty(i, j) = bilinear_frac(coarse.ty, ci, cj) / sy;
    }
  return fine;
}

Array2D<double> downsample2(const Array2D<double>& u) {
  const int nx = std::max(u.nx() / 2, 1), ny = std::max(u.ny() / 2, 1);
  Array2D<double> out(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      out(i, j) = 0.25 * (u.at_clamped(2 * i, 2 * j) +
                          u.at_clamped(2 * i + 1, 2 * j) +
                          u.at_clamped(2 * i, 2 * j + 1) +
                          u.at_clamped(2 * i + 1, 2 * j + 1));
  return out;
}

Array2D<double> gaussian_smooth(const Array2D<double>& u, double sigma) {
  if (sigma <= 0) return u;
  const int radius = std::max(1, static_cast<int>(std::ceil(2.0 * sigma)));
  std::vector<double> k(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0;
  for (int i = -radius; i <= radius; ++i) {
    k[i + radius] = std::exp(-0.5 * (i * i) / (sigma * sigma));
    sum += k[i + radius];
  }
  for (double& v : k) v /= sum;
  Array2D<double> tmp(u.nx(), u.ny()), out(u.nx(), u.ny());
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

std::vector<Array2D<double>> smoothed_pyramid(const Array2D<double>& u,
                                              int max_levels, double sigma) {
  std::vector<Array2D<double>> p{u};
  while (static_cast<int>(p.size()) < max_levels && p.back().nx() >= 32 &&
         p.back().ny() >= 32)
    p.push_back(downsample2(p.back()));
  for (Array2D<double>& level : p) level = gaussian_smooth(level, sigma);
  return p;
}

// The coarse-to-fine driver of register_fields(u, u0, opt).
RegistrationResult register_fields(const Array2D<double>& u,
                                   const Array2D<double>& u0,
                                   const RegistrationOptions& opt) {
  const std::vector<Array2D<double>> p0 =
      smoothed_pyramid(u0, opt.max_levels, opt.presmooth_sigma);
  const std::vector<Array2D<double>> pu = smoothed_pyramid(
      u, static_cast<int>(p0.size()), opt.presmooth_sigma);
  RegistrationResult res;
  res.levels = static_cast<int>(pu.size());
  Mapping T;
  for (int level = res.levels - 1; level >= 0; --level) {
    const Array2D<double>& ul = pu[level];
    const Array2D<double>& u0l = p0[level];
    const int nx = ul.nx(), ny = ul.ny();
    if (level == res.levels - 1) {
      T = Mapping(nx, ny);
      global_shift_search(ul, u0l, T);
    } else {
      T = upsample(T, nx, ny);
    }
    double range = 0;
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) range = std::max(range, std::abs(ul(i, j)));
    const double alpha = std::max(1e-12, 1e-4 * range * range);
    const double lambda = std::min(0.45, opt.c2);
    const double shrink = 1.0 / (1.0 + opt.c1);
    Array2D<double> warped(nx, ny);
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
  Array2D<double> warped(u.nx(), u.ny());
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

}  // namespace clamped_reference

// Bit-for-bit equality: == would let -0.0 pass for +0.0.
bool bitwise_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
bool bitwise_equal(const Array2D<double>& a, const Array2D<double>& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}
bool bitwise_equal(const Mapping& a, const Mapping& b) {
  return bitwise_equal(a.tx, b.tx) && bitwise_equal(a.ty, b.ty);
}

// A fire-like image on nx x ny: the front distance of a burning ellipse
// centred at (cx, cy), capped like the observable, plus a gentle ramp.
Array2D<double> fire_image(int nx, int ny, double cx, double cy, double rx,
                           double ry) {
  Array2D<double> u(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      const double d = std::hypot((i - cx) / rx, (j - cy) / ry) - 1.0;
      u(i, j) = std::min(3.0, d * std::min(rx, ry)) + 0.01 * i - 0.02 * j;
    }
  return u;
}

}  // namespace

TEST(Warp, IdentityMappingIsNoop) {
  const Array2D<double> u = blob(32, 32, 16, 16, 5);
  Mapping T(32, 32);
  Array2D<double> out;
  warp(u, T, out);
  EXPECT_LT(max_field_diff(u, out, 0), 1e-14);
}

TEST(Warp, ConstantShiftSamplesUpstream) {
  const Array2D<double> u = blob(64, 64, 32, 32, 6);
  // (I + T)(x) = x + (8, 0): out(i,j) = u(i+8, j) — the blob appears
  // shifted left by 8.
  const Mapping T = constant_mapping(64, 64, 8.0, 0.0);
  Array2D<double> out;
  warp(u, T, out);
  const Array2D<double> expected = blob(64, 64, 24, 32, 6);
  EXPECT_LT(max_field_diff(out, expected, 10), 1e-10);
}

TEST(Warp, CompositionMatchesSequentialWarp) {
  const Array2D<double> u = blob(64, 64, 36, 30, 6);
  const Mapping T1 = constant_mapping(64, 64, 4.0, -2.0);
  const Mapping T2 = constant_mapping(64, 64, -1.0, 3.0);
  // u o (I+T1) o (I+T2) == u o (I + compose(T1, T2)).
  Array2D<double> step1, step2, direct;
  warp(u, T1, step1);
  warp(step1, T2, step2);
  warp(u, compose(T1, T2), direct);
  EXPECT_LT(max_field_diff(step2, direct, 8), 1e-9);
}

TEST(Warp, InverseComposesToIdentity) {
  // Smooth non-constant mapping, well within the invertibility regime.
  Mapping T(48, 48);
  for (int j = 0; j < 48; ++j)
    for (int i = 0; i < 48; ++i) {
      T.tx(i, j) = 2.0 * std::sin(2 * M_PI * j / 48.0);
      T.ty(i, j) = 1.5 * std::cos(2 * M_PI * i / 48.0);
    }
  const Mapping Tinv = invert(T);
  const Mapping round = compose(T, Tinv);  // (I+T) o (I+Tinv) ~ I
  EXPECT_LT(round.max_norm(), 0.05);
}

TEST(Warp, InverseErrorDiagnostic) {
  Mapping T(32, 32);
  for (int j = 0; j < 32; ++j)
    for (int i = 0; i < 32; ++i) {
      T.tx(i, j) = 1.5 * std::sin(2 * M_PI * j / 32.0);
      T.ty(i, j) = 1.0 * std::cos(2 * M_PI * i / 32.0);
    }
  const Mapping good = invert(T, 40);
  const Mapping bad = invert(T, 1);
  EXPECT_LT(inverse_error(T, good), inverse_error(T, bad));
  EXPECT_LT(inverse_error(T, good), 0.02);
  // The identity mapping inverts to (numerically) zero error.
  const Mapping id(16, 16);
  EXPECT_NEAR(inverse_error(id, invert(id)), 0.0, 1e-12);
}

TEST(Warp, MaxNormReportsLargestDisplacement) {
  Mapping T(8, 8);
  T.tx(3, 3) = 3.0;
  T.ty(3, 3) = 4.0;
  EXPECT_DOUBLE_EQ(T.max_norm(), 5.0);
}

TEST(Registration, PyramidHelpers) {
  const Array2D<double> u = blob(32, 32, 16, 16, 5);
  const Array2D<double> down = downsample2(u);
  EXPECT_EQ(down.nx(), 16);
  EXPECT_EQ(down.ny(), 16);
  // Downsampling preserves the mean.
  EXPECT_NEAR(wfire::util::sum(down) * 4, wfire::util::sum(u), 1e-6);

  const Array2D<double> smooth = gaussian_smooth(u, 1.5);
  EXPECT_LT(wfire::util::max_value(smooth), wfire::util::max_value(u));
  // Mass conserved up to the clamped-boundary leakage (blob is interior).
  EXPECT_NEAR(wfire::util::sum(smooth), wfire::util::sum(u),
              1e-3 * wfire::util::sum(u));
}

class RegistrationShift
    : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(RegistrationShift, RecoversKnownTranslation) {
  const auto [sx, sy] = GetParam();
  const int n = 64;
  const Array2D<double> u0 = blob(n, n, 32, 32, 7, 100.0);
  const Array2D<double> u = blob(n, n, 32 - sx, 32 - sy, 7, 100.0);
  // u(x) = u0(x + s): registration u ~ u0 o (I+T) should find T ~ s.

  RegistrationOptions opt;
  const RegistrationResult res = register_fields(u, u0, opt);

  // Check the recovered displacement where the blob actually is.
  const int ci = static_cast<int>(32 - sx), cj = static_cast<int>(32 - sy);
  EXPECT_NEAR(res.T.tx(ci, cj), sx, 1.0);
  EXPECT_NEAR(res.T.ty(ci, cj), sy, 1.0);
  // And the data term dropped far below the unregistered mismatch.
  double raw = 0;
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) {
      const double e = u(i, j) - u0(i, j);
      raw += e * e;
    }
  raw /= n * n;
  EXPECT_LT(res.data_term, 0.2 * raw);
}

INSTANTIATE_TEST_SUITE_P(Shifts, RegistrationShift,
                         ::testing::Values(std::pair{3.0, 0.0},
                                           std::pair{0.0, 4.0},
                                           std::pair{6.0, -5.0},
                                           std::pair{12.0, 9.0}));

TEST(Registration, IdenticalImagesGiveNearZeroMapping) {
  const Array2D<double> u0 = blob(48, 48, 24, 24, 6, 10.0);
  const RegistrationResult res = register_fields(u0, u0, {});
  EXPECT_LT(res.T.max_norm(), 0.3);
  EXPECT_LT(res.data_term, 1e-6);
}

TEST(Registration, RejectsShapeMismatch) {
  const Array2D<double> a = blob(32, 32, 16, 16, 4);
  const Array2D<double> b = blob(16, 16, 8, 8, 2);
  EXPECT_THROW(register_fields(a, b, {}), std::invalid_argument);

  // Below 2x2 a bilinear cell does not exist; every sampler and the
  // registration reject such images, and non-finite values, up front.
  for (const auto& [nx, ny] : {std::pair{1, 8}, std::pair{8, 1},
                               std::pair{0, 0}, std::pair{1, 1}}) {
    const Array2D<double> tiny(nx, ny, 1.0);
    EXPECT_THROW(register_fields(tiny, tiny, {}), std::invalid_argument)
        << nx << "x" << ny;
    EXPECT_THROW(invert(Mapping(nx, ny)), std::invalid_argument)
        << nx << "x" << ny;
    Array2D<double> out;
    EXPECT_THROW(warp(tiny, Mapping(nx, ny), out), std::invalid_argument)
        << nx << "x" << ny;
  }
  EXPECT_THROW(invert(Mapping(1, 5)), std::invalid_argument);

  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    Array2D<double> spoiled = a;
    spoiled(7, 9) = bad;
    EXPECT_THROW(register_fields(spoiled, a, {}), std::invalid_argument);
    EXPECT_THROW(register_fields(a, spoiled, {}), std::invalid_argument);
    Array2D<double> out;
    EXPECT_THROW(warp(spoiled, Mapping(32, 32), out), std::invalid_argument);
    Mapping T(32, 32);
    T.ty(3, 30) = bad;
    EXPECT_THROW(invert(T), std::invalid_argument);
    EXPECT_THROW(warp(a, T, out), std::invalid_argument);
  }

  // A mapping whose components differ in shape, or whose shape differs
  // from the image being warped.
  Mapping ragged(32, 32);
  ragged.ty = Array2D<double>(32, 31, 0.0);
  EXPECT_THROW(invert(ragged), std::invalid_argument);
  Array2D<double> out;
  EXPECT_THROW(warp(a, ragged, out), std::invalid_argument);
  EXPECT_THROW(warp(a, Mapping(16, 16), out), std::invalid_argument);
}

TEST(Registration, KernelsMatchClampedReference) {
  // The row-pointer kernels (clamp-free interiors, explicit edge rows and
  // columns, one shared bilinear stencil) must reproduce the clamped
  // per-sample loops bit for bit, on shapes down to the 2x2 minimum where
  // every node is an edge node, with shifts and mappings large enough that
  // samples land past every edge.
  const std::pair<int, int> shapes[] = {{2, 2},  {2, 9},   {9, 2},   {3, 17},
                                        {17, 3}, {33, 40}, {101, 101}};
  const RegistrationOptions opt;
  for (const auto& [nx, ny] : shapes) {
    SCOPED_TRACE(::testing::Message() << nx << "x" << ny);
    const double rx = std::max(0.6, 0.2 * nx), ry = std::max(0.6, 0.2 * ny);
    const Array2D<double> u0 =
        fire_image(nx, ny, 0.45 * nx, 0.5 * ny, rx, ry);
    const Array2D<double> u =
        fire_image(nx, ny, 0.75 * nx, 0.25 * ny, 0.9 * rx, 1.1 * ry);

    EXPECT_TRUE(bitwise_equal(downsample2(u),
                              clamped_reference::downsample2(u)));
    for (const double sigma : {0.7, 1.0, 2.5})
      EXPECT_TRUE(bitwise_equal(gaussian_smooth(u, sigma),
                                clamped_reference::gaussian_smooth(u, sigma)))
          << "sigma " << sigma;

    const RegistrationResult got = register_fields(u, u0, opt);
    const RegistrationResult want =
        clamped_reference::register_fields(u, u0, opt);
    EXPECT_TRUE(bitwise_equal(got.T, want.T));
    EXPECT_TRUE(bitwise_equal(got.objective, want.objective));
    EXPECT_TRUE(bitwise_equal(got.data_term, want.data_term));
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.levels, want.levels);

    // A mapping whose samples leave the grid on every side.
    Mapping wild(nx, ny);
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        wild.tx(i, j) = 0.7 * nx * std::sin(0.9 * i + 0.4 * j) + 0.3;
        wild.ty(i, j) = 0.7 * ny * std::cos(0.5 * i - 0.8 * j) - 0.2;
      }
    for (const Mapping* T : {&got.T, static_cast<const Mapping*>(&wild)}) {
      const Mapping inv = invert(*T);
      EXPECT_TRUE(bitwise_equal(inv, clamped_reference::invert(*T)));
      EXPECT_TRUE(bitwise_equal(invert(*T, 7, 0.9),
                                clamped_reference::invert(*T, 7, 0.9)));
      Array2D<double> w, w_ref;
      warp(u0, *T, w);
      clamped_reference::warp(u0, *T, w_ref);
      EXPECT_TRUE(bitwise_equal(w, w_ref));
      EXPECT_TRUE(bitwise_equal(compose(*T, inv),
                                clamped_reference::compose(*T, inv)));
      EXPECT_TRUE(bitwise_equal(compose(wild, *T),
                                clamped_reference::compose(wild, *T)));

      // The residual is the warp by the inverse minus u0.
      Array2D<double> r(nx, ny), r_ref;
      morph_residual(u, u0, inv, r.span());
      clamped_reference::warp(u, inv, r_ref);
      for (int p = 0; p < nx * ny; ++p) r_ref.data()[p] -= u0.data()[p];
      EXPECT_TRUE(bitwise_equal(r, r_ref));
    }
  }
}

TEST(Morph, EndpointIdentities) {
  // u_0 = u0 and u_1 = u (up to interpolation error) for the corrected
  // Eq. (1): u_lambda = (u0 + lambda r) o (I + lambda T).
  const int n = 64;
  const Array2D<double> u0 = blob(n, n, 30, 32, 7, 50.0);
  const Array2D<double> u = blob(n, n, 38, 33, 8, 60.0);
  const Encoded rep = encode(u, u0);

  const Array2D<double> at0 = morph_path(u0, rep, 0.0);
  EXPECT_LT(max_field_diff(at0, u0, 2), 1e-10);

  Array2D<double> at1;
  morph_decode(u0, rep.r.span(), rep.T, at1);
  // The lambda = 1 endpoint is exact only up to the approximate inverse
  // composed with the forward mapping (first-order in the inversion
  // residual times the image gradient): bound the max pointwise error by
  // 30% of the amplitude and the mean error much tighter.
  EXPECT_LT(max_field_diff(at1, u, 6), 0.3 * 60.0);
  double mean_err = 0;
  for (int j = 6; j < n - 6; ++j)
    for (int i = 6; i < n - 6; ++i) mean_err += std::abs(at1(i, j) - u(i, j));
  mean_err /= (n - 12.0) * (n - 12.0);
  EXPECT_LT(mean_err, 0.03 * 60.0);
}

TEST(Morph, IntermediateStatesMoveMonotonically) {
  // The blob's peak location along the morphing path moves from the u0
  // center toward the u center as lambda goes 0 -> 1.
  const int n = 64;
  const Array2D<double> u0 = blob(n, n, 24, 32, 6, 10.0);
  const Array2D<double> u = blob(n, n, 40, 32, 6, 10.0);
  const Encoded rep = encode(u, u0);

  double prev_peak_x = -1;
  for (double lambda : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Array2D<double> ul = morph_path(u0, rep, lambda);
    int pi = 0, pj = 0;
    double best = -1;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        if (ul(i, j) > best) {
          best = ul(i, j);
          pi = i;
          pj = j;
        }
    (void)pj;
    EXPECT_GE(pi, prev_peak_x);  // monotone rightward motion
    prev_peak_x = pi;
  }
  EXPECT_GT(prev_peak_x, 34);  // ended near the data location
}

TEST(Morph, ResidualSmallWhenOnlyPositionDiffers) {
  // Position-only error: after registration the amplitude residual is small
  // — exactly why the morphing representation suits misplaced fires.
  const int n = 64;
  const Array2D<double> u0 = blob(n, n, 26, 30, 6, 10.0);
  const Array2D<double> u = blob(n, n, 36, 34, 6, 10.0);
  const Encoded rep = encode(u, u0);
  EXPECT_LT(wfire::util::max_value(rep.r), 3.0);  // << amplitude 10
  EXPECT_GT(rep.T.max_norm(), 5.0);               // position carried by T
}

TEST(MorphingEnKF, PullsDisplacedEnsembleTowardData) {
  // Miniature Fig. 4: ensemble of blobs at a wrong location, data at the
  // truth location. The morphing analysis must move the ensemble toward the
  // data; a standard pixelwise EnKF cannot move it nearly as far.
  const int n = 48;
  Rng rng(21);
  const double true_x = 30, wrong_x = 18, cy = 24;
  const Array2D<double> data = blob(n, n, true_x, cy, 5, 10.0);

  const auto make_members = [&](Rng& r) {
    std::vector<MorphMember> members;
    for (int k = 0; k < 12; ++k) {
      MorphMember m;
      m.fields.push_back(blob(n, n, wrong_x + r.normal() * 1.5,
                              cy + r.normal() * 1.5, 5, 10.0));
      members.push_back(std::move(m));
    }
    return members;
  };

  const auto centroid_x = [&](const Array2D<double>& f) {
    double sx = 0, sw = 0;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i)
        if (f(i, j) > 1.0) {
          sx += i * f(i, j);
          sw += f(i, j);
        }
    return sw > 0 ? sx / sw : 0.0;
  };

  // Morphing EnKF.
  Rng rng_m(22);
  std::vector<MorphMember> morph_members = make_members(rng_m);
  MorphingEnKFOptions mopt;
  mopt.sigma_r = 0.5;
  mopt.sigma_T = 0.5;
  MorphingEnKF filter(mopt);
  filter.analyze(morph_members, data, rng_m);
  double morph_mean_x = 0;
  for (const auto& m : morph_members) morph_mean_x += centroid_x(m.fields[0]);
  morph_mean_x /= morph_members.size();

  // Standard EnKF baseline.
  Rng rng_s(22);
  std::vector<MorphMember> std_members = make_members(rng_s);
  standard_enkf_on_fields(std_members, data, 0.5, rng_s);
  double std_mean_x = 0;
  for (const auto& m : std_members) std_mean_x += centroid_x(m.fields[0]);
  std_mean_x /= std_members.size();

  // Morphing moved the fire most of the way to the truth.
  EXPECT_GT(morph_mean_x, wrong_x + 0.6 * (true_x - wrong_x));
  // And clearly beats the standard filter's position correction.
  EXPECT_GT(morph_mean_x, std_mean_x + 2.0);
}

TEST(MorphingEnKF, CompanionFieldsMoveWithTheObservable) {
  // Members carry a companion field; the analysis must move it coherently
  // with the registration field (shared mapping T).
  const int n = 48;
  Rng rng(31);
  const Array2D<double> data = blob(n, n, 30, 24, 5, 10.0);
  std::vector<MorphMember> members;
  for (int k = 0; k < 10; ++k) {
    MorphMember m;
    const double cx = 18 + rng.normal();
    m.fields.push_back(blob(n, n, cx, 24, 5, 10.0));      // observable
    m.fields.push_back(blob(n, n, cx, 24, 8, -20.0));     // companion (psi-ish)
    members.push_back(std::move(m));
  }
  MorphingEnKFOptions mopt;
  mopt.sigma_r = 0.5;
  mopt.sigma_T = 0.5;
  MorphingEnKF filter(mopt);
  filter.analyze(members, data, rng);

  // Companion minimum follows the observable peak.
  for (const auto& m : members) {
    int pi = 0, qi = 0;
    double best = -1, worst = 1;
    for (int j = 0; j < n; ++j)
      for (int i = 0; i < n; ++i) {
        if (m.fields[0](i, j) > best) { best = m.fields[0](i, j); pi = i; }
        if (m.fields[1](i, j) < worst) { worst = m.fields[1](i, j); qi = i; }
      }
    EXPECT_NEAR(pi, qi, 4);
  }
}

TEST(MorphingEnKF, ValidatesInputs) {
  MorphingEnKF filter;
  std::vector<MorphMember> empty;
  Rng rng(1);
  Array2D<double> data(8, 8, 0.0);
  EXPECT_THROW(filter.analyze(empty, data, rng), std::invalid_argument);

  std::vector<MorphMember> ragged(2);
  ragged[0].fields.push_back(Array2D<double>(8, 8, 0.0));
  ragged[1].fields.push_back(Array2D<double>(8, 8, 0.0));
  ragged[1].fields.push_back(Array2D<double>(8, 8, 0.0));
  EXPECT_THROW(filter.analyze(ragged, data, rng), std::invalid_argument);

  // Members without fields, a member whose observable is shaped unlike the
  // others, and companions shaped unlike the data image are all rejected
  // before the parallel encode (where a throw would end the process).
  std::vector<MorphMember> fieldless(2);
  EXPECT_THROW(filter.analyze(fieldless, data, rng), std::invalid_argument);
  std::vector<MorphMember> misshapen(2);
  misshapen[0].fields.push_back(Array2D<double>(8, 8, 0.0));
  misshapen[1].fields.push_back(Array2D<double>(7, 7, 0.0));
  EXPECT_THROW(filter.analyze(misshapen, data, rng), std::invalid_argument);
  std::vector<MorphMember> companions(2);
  for (auto& m : companions) {
    m.fields.push_back(Array2D<double>(8, 8, 0.0));
    m.fields.push_back(Array2D<double>(9, 9, 0.0));
  }
  EXPECT_THROW(filter.analyze(companions, data, rng), std::invalid_argument);

  // The standard filter runs the same check: fields smaller or larger than
  // the image, ragged members, and members without fields.
  std::vector<MorphMember> fields8(2);
  for (auto& m : fields8) m.fields.push_back(Array2D<double>(8, 8, 0.0));
  for (const int n : {7, 9})
    EXPECT_THROW(standard_enkf_on_fields(fields8, Array2D<double>(n, n, 0.0),
                                         1.0, rng),
                 std::invalid_argument)
        << n << "x" << n << " image";
  EXPECT_THROW(standard_enkf_on_fields(ragged, data, 1.0, rng),
               std::invalid_argument);
  EXPECT_THROW(standard_enkf_on_fields(fieldless, data, 1.0, rng),
               std::invalid_argument);

  // Images the kernels cannot sample: a non-finite value in the data image
  // or in any member field (observable or companion), and 1-wide fields.
  // The check runs before the parallel encode, where a throw would end the
  // process.
  const auto blobs = [](int nx, int ny) {
    std::vector<MorphMember> members(3);
    for (auto& m : members) {
      m.fields.push_back(blob(nx, ny, nx / 2.0, ny / 2.0, 3, 10.0));
      m.fields.push_back(blob(nx, ny, nx / 2.0, ny / 2.0, 5, -20.0));
    }
    return members;
  };
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    std::vector<MorphMember> members = blobs(16, 16);
    Array2D<double> spoiled_data = blob(16, 16, 9, 8, 3, 10.0);
    spoiled_data(4, 11) = bad;
    EXPECT_THROW(filter.analyze(members, spoiled_data, rng),
                 std::invalid_argument);
    EXPECT_THROW(standard_enkf_on_fields(members, spoiled_data, 1.0, rng),
                 std::invalid_argument);
    const Array2D<double> clean_data = blob(16, 16, 9, 8, 3, 10.0);
    for (const std::size_t f : {0u, 1u}) {
      std::vector<MorphMember> spoiled = blobs(16, 16);
      spoiled[2].fields[f](15, 0) = bad;
      EXPECT_THROW(filter.analyze(spoiled, clean_data, rng),
                   std::invalid_argument)
          << "field " << f;
    }
  }
  for (const auto& [nx, ny] : {std::pair{1, 32}, std::pair{32, 1}}) {
    std::vector<MorphMember> thin = blobs(nx, ny);
    EXPECT_THROW(filter.analyze(thin, Array2D<double>(nx, ny, 1.0), rng),
                 std::invalid_argument)
        << nx << "x" << ny;
  }

  // One member, and options the analysis divides by or scales with, are
  // rejected before the encode: the members and the rng (whose draws the
  // encode makes) are left exactly as they were.
  const Array2D<double> clean_data = blob(16, 16, 9, 8, 3, 10.0);
  const auto expect_untouched = [&](MorphingEnKF& f,
                                    std::vector<MorphMember>& members,
                                    const char* what) {
    const std::vector<MorphMember> before = members;
    Rng r(5), r_copy(5);
    EXPECT_THROW(f.analyze(members, clean_data, r), std::invalid_argument)
        << what;
    EXPECT_EQ(r.next_u64(), r_copy.next_u64()) << what;
    for (std::size_t k = 0; k < members.size(); ++k)
      for (std::size_t fi = 0; fi < members[k].fields.size(); ++fi)
        EXPECT_TRUE(members[k].fields[fi] == before[k].fields[fi]) << what;
  };
  std::vector<MorphMember> single = blobs(16, 16);
  single.resize(1);
  expect_untouched(filter, single, "one member");
  const double bad_values[] = {0.0, -1.0, std::nan(""), HUGE_VAL};
  const std::pair<double MorphingEnKFOptions::*, const char*> options[] = {
      {&MorphingEnKFOptions::sigma_r, "sigma_r"},
      {&MorphingEnKFOptions::sigma_T, "sigma_T"},
      {&MorphingEnKFOptions::inflation, "inflation"}};
  for (const auto& [opt, name] : options) {
    for (const double bad : bad_values) {
      MorphingEnKFOptions o;
      o.*opt = bad;
      MorphingEnKF bad_filter(o);
      std::vector<MorphMember> members = blobs(16, 16);
      expect_untouched(bad_filter, members, name);
      // The filter's own check names the option (the inner analysis
      // would only see a bad r_std or inflation, after the encode).
      try {
        bad_filter.analyze(members, clean_data, rng);
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(MorphingEnKF, AnalyzeMatchesPerImageComposition) {
  // Bitwise oracle for analyze(), rebuilt from the public pieces: each of
  // the N members and the data image is registered against the field-0
  // ensemble mean, its mapping is inverted, every field's residual
  // r = u o (I+T)^{-1} - u0 goes into the extended state with T, the
  // stochastic EnKF runs on the same column layout, and each member is
  // decoded as (u0 + r) o (I + T).
  const int n = 41, N = 8, nf = 3;
  const int npix = n * n;
  Rng gen(41);
  std::vector<MorphMember> members(N);
  for (auto& m : members) {
    const double cx = 16 + 2.0 * gen.normal(), cy = 20 + 2.0 * gen.normal();
    m.fields.push_back(blob(n, n, cx, cy, 4, 10.0));
    m.fields.push_back(blob(n, n, cx, cy, 7, -20.0));
    m.fields.push_back(blob(n, n, cx + 1.0, cy - 1.0, 5, 3.0));
  }
  const Array2D<double> data = blob(n, n, 24, 21, 4, 10.0);
  MorphingEnKFOptions mopt;
  mopt.sigma_r = 0.5;
  mopt.sigma_T = 0.7;
  mopt.inflation = 1.1;

  std::vector<Array2D<double>> u0(nf, Array2D<double>(n, n, 0.0));
  for (int f = 0; f < nf; ++f) {
    for (const auto& m : members)
      for (int p = 0; p < npix; ++p) u0[f].data()[p] += m.fields[f].data()[p];
    for (double& v : u0[f]) v *= 1.0 / N;
  }
  // Encodes one image: column = [r_0 .. r_{count-1}, Tx, Ty].
  const auto encode = [&](const std::vector<Array2D<double>>& fields,
                          int count, std::span<double> col) {
    const RegistrationResult reg = register_fields(fields[0], u0[0], mopt.reg);
    const Mapping Tinv = invert(reg.T);
    std::size_t pos = 0;
    for (int f = 0; f < count; ++f) {
      Array2D<double> warped;
      warp(fields[f], Tinv, warped);
      for (int p = 0; p < npix; ++p)
        col[pos++] = warped.data()[p] - u0[f].data()[p];
    }
    for (const double v : reg.T.tx) col[pos++] = v;
    for (const double v : reg.T.ty) col[pos++] = v;
    return reg;
  };
  wfire::la::Matrix X(nf * npix + 2 * npix, N), HX(3 * npix, N);
  double res_sum = 0, max_norm = 0;
  for (int k = 0; k < N; ++k) {
    const RegistrationResult reg = encode(members[k].fields, nf, X.col(k));
    res_sum += reg.data_term;
    max_norm = std::max(max_norm, reg.T.max_norm());
    for (int p = 0; p < 3 * npix; ++p)
      HX(p, k) = X(p < npix ? p : p + (nf - 1) * npix, k);
  }
  wfire::la::Vector d(3 * npix), r_std(3 * npix);
  const double data_res = encode({data}, 1, d).data_term;
  for (int p = 0; p < 3 * npix; ++p)
    r_std[p] = p < npix ? mopt.sigma_r : mopt.sigma_T;

  Rng rng_expected(77), rng_actual(77);
  wfire::la::Workspace ws;
  wfire::enkf::EnKFOptions eopt;
  eopt.inflation = mopt.inflation;
  eopt.workspace = &ws;
  wfire::enkf::enkf_analysis(X, HX, d, r_std, rng_expected, eopt);

  std::vector<MorphMember> expected = members;
  for (int k = 0; k < N; ++k) {
    const auto xc = X.col(k);
    Mapping T(n, n);
    for (int p = 0; p < npix; ++p) {
      T.tx.data()[p] = xc[nf * npix + p];
      T.ty.data()[p] = xc[nf * npix + npix + p];
    }
    for (int f = 0; f < nf; ++f) {
      Array2D<double> base(n, n);
      for (int p = 0; p < npix; ++p)
        base.data()[p] = u0[f].data()[p] + xc[f * npix + p];
      warp(base, T, expected[k].fields[f]);
    }
  }

  MorphingEnKF filter(mopt);
  const MorphingStats stats = filter.analyze(members, data, rng_actual);
  EXPECT_EQ(stats.mean_registration_residual, res_sum / N);
  EXPECT_EQ(stats.data_registration_residual, data_res);
  EXPECT_EQ(stats.max_mapping_norm, max_norm);
  for (int k = 0; k < N; ++k)
    for (int f = 0; f < nf; ++f)
      EXPECT_TRUE(members[k].fields[f] == expected[k].fields[f])
          << "member " << k << " field " << f;
}

TEST(MorphingEnKF, AnalyzeMatchesSerialDrawOrder) {
  // analyze() draws the observation perturbations during its encode and
  // builds HX there; the bits must be those of encoding first and then
  // running the serial analysis that draws inside itself
  // (tests/serial_reference.h), at OpenMP widths 1, 2 and 4, and the rng
  // must end where that analysis leaves it.
  const int n = 24, N = 6, nf = 2;
  const int npix = n * n;
  Rng gen(2203);
  std::vector<MorphMember> members(N);
  for (auto& m : members) {
    const double cx = 10 + 1.5 * gen.normal(), cy = 12 + 1.5 * gen.normal();
    m.fields.push_back(blob(n, n, cx, cy, 3, 10.0));
    m.fields.push_back(blob(n, n, cx, cy, 5, -20.0));
  }
  const Array2D<double> data = blob(n, n, 14, 12, 3, 10.0);
  MorphingEnKFOptions mopt;
  mopt.sigma_r = 0.5;
  mopt.sigma_T = 0.7;

  std::vector<Array2D<double>> u0(nf, Array2D<double>(n, n, 0.0));
  for (int f = 0; f < nf; ++f) {
    for (const auto& m : members)
      for (int p = 0; p < npix; ++p) u0[f].data()[p] += m.fields[f].data()[p];
    for (double& v : u0[f]) v *= 1.0 / N;
  }
  const auto encode = [&](const std::vector<Array2D<double>>& fields,
                          int count, std::span<double> col) {
    const RegistrationResult reg = register_fields(fields[0], u0[0], mopt.reg);
    const Mapping Tinv = invert(reg.T);
    std::size_t pos = 0;
    for (int f = 0; f < count; ++f) {
      Array2D<double> warped;
      warp(fields[f], Tinv, warped);
      for (int p = 0; p < npix; ++p)
        col[pos++] = warped.data()[p] - u0[f].data()[p];
    }
    for (const double v : reg.T.tx) col[pos++] = v;
    for (const double v : reg.T.ty) col[pos++] = v;
  };
  wfire::la::Matrix X(nf * npix + 2 * npix, N), HX(3 * npix, N);
  for (int k = 0; k < N; ++k) {
    encode(members[k].fields, nf, X.col(k));
    for (int p = 0; p < 3 * npix; ++p)
      HX(p, k) = X(p < npix ? p : p + (nf - 1) * npix, k);
  }
  wfire::la::Vector d(3 * npix), r_std(3 * npix);
  encode({data}, 1, d);
  for (int p = 0; p < 3 * npix; ++p)
    r_std[p] = p < npix ? mopt.sigma_r : mopt.sigma_T;
  Rng rng_expected(78);
  serial_reference::enkf_analysis(X, HX, d, r_std, rng_expected,
                                  mopt.inflation);
  const std::uint64_t next = rng_expected.next_u64();

  std::vector<MorphMember> expected = members;
  for (int k = 0; k < N; ++k) {
    const auto xc = X.col(k);
    Mapping T(n, n);
    for (int p = 0; p < npix; ++p) {
      T.tx.data()[p] = xc[nf * npix + p];
      T.ty.data()[p] = xc[nf * npix + npix + p];
    }
    for (int f = 0; f < nf; ++f) {
      Array2D<double> base(n, n);
      for (int p = 0; p < npix; ++p)
        base.data()[p] = u0[f].data()[p] + xc[f * npix + p];
      warp(base, T, expected[k].fields[f]);
    }
  }

  for (const int width : {1, 2, 4}) {
    wfire::util::ScopedOmpNumThreads omp(width);
    std::vector<MorphMember> got = members;
    Rng rng(78);
    MorphingEnKF(mopt).analyze(got, data, rng);
    EXPECT_EQ(rng.next_u64(), next) << "width " << width;
    for (int k = 0; k < N; ++k)
      for (int f = 0; f < nf; ++f)
        EXPECT_TRUE(got[k].fields[f] == expected[k].fields[f])
            << "width " << width << " member " << k << " field " << f;
  }
}
