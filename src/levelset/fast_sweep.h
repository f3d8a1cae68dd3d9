// Fast sweeping reinitialization: rebuilds psi as a signed distance function
// while preserving the zero contour. Long integrations flatten |grad psi|
// away from 1 near merged fronts; periodic redistancing keeps the Godunov
// gradient well-conditioned. (Zhao's fast sweeping method for |grad d| = 1.)
#pragma once

#include <vector>

#include "grid/grid2d.h"
#include "levelset/batch.h"
#include "util/array2d.h"

namespace wfire::levelset {

// Replaces psi by the signed distance with the same zero contour.
// `sweeps` Gauss-Seidel passes over the 4 diagonal orderings (2 is usually
// enough; distances converge monotonically from the front outward).
void reinitialize(const grid::Grid2D& g, util::Array2D<double>& psi,
                  int sweeps = 2);

// Same, drawing the distance work array from caller-held scratch so periodic
// redistancing inside a stepping loop stays allocation-free.
void reinitialize(const grid::Grid2D& g, util::Array2D<double>& psi,
                  int sweeps, util::Array2D<double>& dist_scratch);

// Widest lane block of reinitialize_lanes.
inline constexpr int kSweepLanes = 8;

// Lane-batched reinitialize: redistances lanes [0, lanes) of the SoA field
// `psi` (layout contract of levelset/batch.h; lanes <= lay.stride), each
// lane with exactly the arithmetic of reinitialize(g, lane, sweeps), so
// every lane comes out bitwise equal to the scalar kernel's result. A lane
// with no interface is left untouched (the scalar early return). The
// Gauss-Seidel recurrence is serial within a lane; the kernel instead runs
// up to kSweepLanes independent lanes per node, in blocks split across the
// caller's OpenMP team (at least one block per thread while lanes allow).
// `dist` is the caller-held, block-major distance scratch, grown to
// (nx + 2) * (ny + 2) * lanes doubles on first use and reused after.
void reinitialize_lanes(const grid::Grid2D& g, const BatchLayout& lay,
                        int lanes, double* psi, int sweeps,
                        std::vector<double>& dist);

// Measures the deviation of |grad psi| from 1 in a band around the front
// (|psi| < band). Diagnostic used by tests and the reinit policy.
[[nodiscard]] double eikonal_residual(const grid::Grid2D& g,
                                      const util::Array2D<double>& psi,
                                      double band);

}  // namespace wfire::levelset
