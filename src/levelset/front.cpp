#include "levelset/front.h"

#include <cmath>
#include <limits>

namespace wfire::levelset {

namespace {
// Zero crossing parameter on an edge from value a to value b (a*b < 0).
inline double crossing(double a, double b) { return a / (a - b); }
}  // namespace

std::vector<FrontSegment> extract_front(const grid::Grid2D& g,
                                        const util::Array2D<double>& psi) {
  std::vector<FrontSegment> segs;
  for (int j = 0; j < g.ny - 1; ++j) {
    for (int i = 0; i < g.nx - 1; ++i) {
      const double v00 = psi(i, j);
      const double v10 = psi(i + 1, j);
      const double v01 = psi(i, j + 1);
      const double v11 = psi(i + 1, j + 1);
      int caseid = 0;
      if (v00 < 0) caseid |= 1;
      if (v10 < 0) caseid |= 2;
      if (v11 < 0) caseid |= 4;
      if (v01 < 0) caseid |= 8;
      if (caseid == 0 || caseid == 15) continue;

      const double x = g.x(i), y = g.y(j);
      // Edge crossing points (valid only when the edge has a sign change).
      const double bx = x + crossing(v00, v10) * g.dx, by = y;           // bottom
      const double rx = x + g.dx, ry = y + crossing(v10, v11) * g.dy;    // right
      const double tx = x + crossing(v01, v11) * g.dx, ty = y + g.dy;    // top
      const double lx = x, ly = y + crossing(v00, v01) * g.dy;           // left

      auto add = [&](double ax, double ay, double cx, double cy) {
        segs.push_back({ax, ay, cx, cy});
      };
      switch (caseid) {
        case 1: case 14: add(lx, ly, bx, by); break;
        case 2: case 13: add(bx, by, rx, ry); break;
        case 3: case 12: add(lx, ly, rx, ry); break;
        case 4: case 11: add(rx, ry, tx, ty); break;
        case 6: case 9:  add(bx, by, tx, ty); break;
        case 7: case 8:  add(lx, ly, tx, ty); break;
        case 5: case 10: {
          // Saddle: disambiguate with the center average.
          const double center = 0.25 * (v00 + v10 + v01 + v11);
          const bool center_burning = center < 0;
          if ((caseid == 5) == center_burning) {
            add(lx, ly, ty == y + g.dy ? tx : tx, ty);  // left-top
            add(bx, by, rx, ry);                        // bottom-right
          } else {
            add(lx, ly, bx, by);
            add(rx, ry, tx, ty);
          }
          break;
        }
        default: break;
      }
    }
  }
  return segs;
}

double front_length(const std::vector<FrontSegment>& segs) {
  double len = 0;
  for (const auto& s : segs) len += std::hypot(s.x2 - s.x1, s.y2 - s.y1);
  return len;
}

double burned_area(const grid::Grid2D& g, const util::Array2D<double>& psi) {
  // Per cell: subdivide into a 2x2 sub-sample of the bilinear interpolant and
  // accumulate the negative fraction, which is second-order accurate and
  // smooth under front motion.
  double cells = 0;
  for (int j = 0; j < g.ny - 1; ++j) {
    for (int i = 0; i < g.nx - 1; ++i) {
      const double v00 = psi(i, j), v10 = psi(i + 1, j);
      const double v01 = psi(i, j + 1), v11 = psi(i + 1, j + 1);
      if (v00 >= 0 && v10 >= 0 && v01 >= 0 && v11 >= 0) continue;
      if (v00 < 0 && v10 < 0 && v01 < 0 && v11 < 0) {
        cells += 1.0;
        continue;
      }
      // Mixed cell: 4x4 midpoint sampling of the bilinear interpolant.
      constexpr int kSub = 4;
      int below = 0;
      for (int b = 0; b < kSub; ++b) {
        const double ty = (b + 0.5) / kSub;
        for (int a = 0; a < kSub; ++a) {
          const double tx = (a + 0.5) / kSub;
          const double v = (1 - tx) * (1 - ty) * v00 + tx * (1 - ty) * v10 +
                           (1 - tx) * ty * v01 + tx * ty * v11;
          if (v < 0) ++below;
        }
      }
      cells += static_cast<double>(below) / (kSub * kSub);
    }
  }
  return cells * g.dx * g.dy;
}

double rightmost_burning_x(const grid::Grid2D& g,
                           const util::Array2D<double>& psi) {
  double best = -std::numeric_limits<double>::infinity();
  for (int j = 0; j < g.ny; ++j) {
    for (int i = g.nx - 1; i >= 0; --i) {
      if (psi(i, j) <= 0) {
        double x = g.x(i);
        // Refine by the crossing on the edge to the right neighbor.
        if (i + 1 < g.nx && psi(i + 1, j) > 0)
          x += crossing(psi(i, j), psi(i + 1, j)) * g.dx;
        best = std::max(best, x);
        break;
      }
    }
  }
  return best;
}

}  // namespace wfire::levelset
