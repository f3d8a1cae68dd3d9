#include "levelset/fast_sweep.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "levelset/godunov.h"
#include "util/omp_compat.h"

namespace wfire::levelset {

namespace {

// Local Eikonal update at a node given the smallest neighbor distances a
// (x-direction) and b (y-direction): solve (d-a)+^2/hx^2 + (d-b)+^2/hy^2 = 1.
double eikonal_update(double a, double b, double hx, double hy) {
  if (a > b) {
    std::swap(a, b);
    std::swap(hx, hy);
  }
  // Try the one-sided solution first.
  double d = a + hx;
  if (d <= b) return d;
  // Two-sided quadratic solution.
  const double hx2 = hx * hx, hy2 = hy * hy;
  const double sum = a * hy2 + b * hx2;
  const double disc = sum * sum - (hy2 + hx2) * (a * a * hy2 + b * b * hx2 -
                                                 hx2 * hy2);
  if (disc < 0) return d;
  return (sum + std::sqrt(disc)) / (hx2 + hy2);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// std::isfinite as one compare, so the lane loops branch only where they
// store.
inline bool finite(double x) { return std::abs(x) < kInf; }

// eikonal_update without branches: every candidate is formed with the same
// operations in the same order and the scalar branch structure selects one,
// so the value is the scalar one bit for bit. (A discarded root may take
// the square root of a negative or NaN discriminant; this file builds with
// -fno-math-errno, so that stays one instruction.)
inline double eikonal_select(double a, double b, double hx, double hy) {
  const bool swap = a > b;
  const double lo = swap ? b : a, hi = swap ? a : b;
  const double hlo = swap ? hy : hx, hhi = swap ? hx : hy;
  const double d = lo + hlo;
  const double hx2 = hlo * hlo, hy2 = hhi * hhi;
  const double sum = lo * hy2 + hi * hx2;
  const double disc = sum * sum - (hy2 + hx2) * (lo * lo * hy2 + hi * hi * hx2 -
                                                 hx2 * hy2);
  const double two_sided = (sum + std::sqrt(disc)) / (hx2 + hy2);
  return d <= hi || disc < 0 ? d : two_sided;
}

// Redistances the W lanes [k0, k0 + W) of the SoA field psi. `dist` holds
// the block's distances node-major with the W lanes innermost, on the grid
// padded by a one-node ring of +inf (the scalar kernel's out-of-range
// neighbour value), so the sweep reads neighbours without bounds tests.
template <int W>
void redistance_block(const grid::Grid2D& g, int stride, int k0, double* psi,
                      int sweeps, double* dist) {
  const int nx = g.nx, ny = g.ny;
  const std::size_t px = static_cast<std::size_t>(nx) + 2;
  std::fill_n(dist, px * (static_cast<std::size_t>(ny) + 2) * W, kInf);
  const auto node = [&](int i, int j) {
    return dist + ((static_cast<std::size_t>(j) + 1) * px + i + 1) * W;
  };
  const auto lane = [&](int i, int j) {
    return psi + (static_cast<std::size_t>(j) * nx + i) * stride + k0;
  };

  // Frozen first-order distances on nodes adjacent to each lane's front.
  bool any[W] = {};
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double* c = lane(i, j);
      double* dc = node(i, j);
      const auto consider = [&](int ii, int jj, double h) {
        if (ii < 0 || ii >= nx || jj < 0 || jj >= ny) return;
        const double* n = lane(ii, jj);
        for (int w = 0; w < W; ++w) {
          const bool cross = (c[w] < 0) != (n[w] < 0) || c[w] == 0.0;
          const double frac =
              c[w] == n[w] ? 0.5 : std::abs(c[w]) / std::abs(c[w] - n[w]);
          dc[w] = cross ? std::min(dc[w], frac * h) : dc[w];
          any[w] = any[w] || cross;
        }
      };
      consider(i - 1, j, g.dx);
      consider(i + 1, j, g.dx);
      consider(i, j - 1, g.dy);
      consider(i, j + 1, g.dy);
    }
  }
  if (std::none_of(any, any + W, [](bool a) { return a; })) return;

  // The scalar kernel's four diagonal orderings; a lane with no interface
  // sweeps all-inf distances, which stay inf.
  const std::ptrdiff_t up = static_cast<std::ptrdiff_t>(px) * W;
  const double dx = g.dx, dy = g.dy;
  const auto sweep = [&](int i0, int i1, int istep, int j0, int j1,
                         int jstep) {
    for (int j = j0; j != j1; j += jstep) {
      for (int i = i0; i != i1; i += istep) {
        double* dc = node(i, j);
        for (int w = 0; w < W; ++w) {
          const double a = std::min(dc[w - W], dc[w + W]);
          const double b = std::min(dc[w - up], dc[w + up]);
          const bool fa = finite(a), fb = finite(b);
          const double d =
              !fb ? a + dx : !fa ? b + dy : eikonal_select(a, b, dx, dy);
          // A conditional store, not a select: after the first sweeps most
          // nodes keep their distance, and a store predicted not taken
          // takes the update's latency off the recurrence (one lane,
          // 101^2, 3 sweeps: 0.7 ms against 2.4 ms with a select).
          if ((fa || fb) && d < dc[w]) dc[w] = d;
        }
      }
    }
  };
  for (int s = 0; s < sweeps; ++s) {
    sweep(0, nx, 1, 0, ny, 1);
    sweep(nx - 1, -1, -1, 0, ny, 1);
    sweep(0, nx, 1, ny - 1, -1, -1);
    sweep(nx - 1, -1, -1, ny - 1, -1, -1);
  }

  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      double* p = lane(i, j);
      const double* dc = node(i, j);
      for (int w = 0; w < W; ++w)
        p[w] = !any[w] ? p[w] : p[w] < 0 ? -dc[w] : dc[w];
    }
  }
}

// redistance_block for each block width 1..kSweepLanes, by width - 1.
using BlockKernel = void (*)(const grid::Grid2D&, int, int, double*, int,
                             double*);
constexpr BlockKernel kBlockKernels[kSweepLanes] = {
    redistance_block<1>, redistance_block<2>, redistance_block<3>,
    redistance_block<4>, redistance_block<5>, redistance_block<6>,
    redistance_block<7>, redistance_block<8>};

}  // namespace

void reinitialize(const grid::Grid2D& g, util::Array2D<double>& psi,
                  int sweeps) {
  util::Array2D<double> dist;
  reinitialize(g, psi, sweeps, dist);
}

void reinitialize(const grid::Grid2D& g, util::Array2D<double>& psi,
                  int sweeps, util::Array2D<double>& dist_scratch) {
  const int nx = g.nx, ny = g.ny;
  const double inf = std::numeric_limits<double>::infinity();
  if (!dist_scratch.same_shape(psi))
    dist_scratch = util::Array2D<double>(nx, ny);
  util::Array2D<double>& dist = dist_scratch;
  dist.fill(inf);

  // Freeze first-order-accurate distances on nodes adjacent to the front:
  // for each sign-changing edge, the distance to the crossing point.
  bool any_interface = false;
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const double c = psi(i, j);
      auto consider = [&](int ii, int jj, double h) {
        if (ii < 0 || ii >= nx || jj < 0 || jj >= ny) return;
        const double n = psi(ii, jj);
        if ((c < 0) != (n < 0) || c == 0.0) {
          const double frac = c == n ? 0.5 : std::abs(c) / std::abs(c - n);
          dist(i, j) = std::min(dist(i, j), frac * h);
          any_interface = true;
        }
      };
      consider(i - 1, j, g.dx);
      consider(i + 1, j, g.dx);
      consider(i, j - 1, g.dy);
      consider(i, j + 1, g.dy);
    }
  }
  if (!any_interface) return;  // nothing to do: uniform sign field

  // Four diagonal sweep orderings propagate distances from the frozen band.
  auto sweep = [&](int i0, int i1, int istep, int j0, int j1, int jstep) {
    for (int j = j0; j != j1; j += jstep) {
      for (int i = i0; i != i1; i += istep) {
        const double a = std::min(i > 0 ? dist(i - 1, j) : inf,
                                  i < nx - 1 ? dist(i + 1, j) : inf);
        const double b = std::min(j > 0 ? dist(i, j - 1) : inf,
                                  j < ny - 1 ? dist(i, j + 1) : inf);
        if (!std::isfinite(a) && !std::isfinite(b)) continue;
        double d;
        if (!std::isfinite(b)) d = a + g.dx;
        else if (!std::isfinite(a)) d = b + g.dy;
        else d = eikonal_update(a, b, g.dx, g.dy);
        dist(i, j) = std::min(dist(i, j), d);
      }
    }
  };
  for (int s = 0; s < sweeps; ++s) {
    sweep(0, nx, 1, 0, ny, 1);
    sweep(nx - 1, -1, -1, 0, ny, 1);
    sweep(0, nx, 1, ny - 1, -1, -1);
    sweep(nx - 1, -1, -1, ny - 1, -1, -1);
  }

  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      psi(i, j) = psi(i, j) < 0 ? -dist(i, j) : dist(i, j);
}

void reinitialize_lanes(const grid::Grid2D& g, const BatchLayout& lay,
                        int lanes, double* psi, int sweeps,
                        std::vector<double>& dist) {
  if (lay.nx != g.nx || lay.ny != g.ny || lanes < 1 || lanes > lay.stride)
    throw std::invalid_argument("reinitialize_lanes: bad layout");
#if defined(WFIRE_HAVE_OPENMP)
  const int team = omp_get_max_threads();
#else
  const int team = 1;
#endif
  const int blocks = std::max((lanes + kSweepLanes - 1) / kSweepLanes,
                              std::min(team, lanes));
  const std::size_t padded = (static_cast<std::size_t>(g.nx) + 2) *
                             (static_cast<std::size_t>(g.ny) + 2);
  if (dist.size() < padded * lanes) dist.resize(padded * lanes);
  double* scratch = dist.data();
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int b = 0; b < blocks; ++b) {
    // Balanced blocks: widths differ by at most one lane.
    const int k0 = lanes * b / blocks, k1 = lanes * (b + 1) / blocks;
    kBlockKernels[k1 - k0 - 1](g, lay.stride, k0, psi, sweeps,
                               scratch + padded * k0);
  }
}

double eikonal_residual(const grid::Grid2D& g,
                        const util::Array2D<double>& psi, double band) {
  util::Array2D<double> grad;
  gradient_magnitude(g, psi, UpwindScheme::kCentral, grad);
  double worst = 0;
  int count = 0;
  // Skip the outermost ring where one-sided clamping biases the gradient.
  for (int j = 1; j < g.ny - 1; ++j) {
    for (int i = 1; i < g.nx - 1; ++i) {
      if (std::abs(psi(i, j)) >= band) continue;
      worst = std::max(worst, std::abs(grad(i, j) - 1.0));
      ++count;
    }
  }
  return count > 0 ? worst : 0.0;
}

}  // namespace wfire::levelset
