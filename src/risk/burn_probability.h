// Monte Carlo burn-probability products: the per-cell burned fraction of an
// ensemble of perturbed scenario runs at a forecast horizon, plus arrival-time
// quantiles — the probability surface of the Adhikari et al. risk platform
// (SNIPPETS.md #3), validated the way Beezley et al. validate forecast
// surfaces against reference burns (F1 / precision / recall).
//
// Ownership and threading contract:
//  - BurnProbabilityGrid is a plain value: immutable once finalized, safe to
//    share read-only across any number of serving threads (the product cache
//    hands out shared_ptr<const BurnProbabilityGrid>).
//  - BurnProbabilityAccumulator is the reduction point: members are folded
//    in one at a time, from any thread (one internal mutex; folds are rare
//    events, so contention is nil). The reduction is independent of fold
//    order because burned counts are integer sums and arrival times land in
//    member-indexed slots; finalize() derives the float surface in fixed
//    cell order.
//  - Allocation: the accumulator carves everything at construction; per
//    member, add_member() writes in place. arrival_quantile() allocates its
//    result (a product query, not a serving-path call).
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "util/array2d.h"

namespace wfire::risk {

// The served product. `arrivals` stores every member's ignition time per
// cell, member-contiguous (`[cell * members + k]`, +inf where member k never
// burned the cell), which is what makes the reduction order-free and the
// quantile queries exact rather than streamed approximations.
struct BurnProbabilityGrid {
  int nx = 0, ny = 0;
  double dx = 0, dy = 0;          // spacing [m]
  double horizon = 0;             // forecast horizon [s]
  int members = 0;                // K, the Monte Carlo sample size
  std::uint64_t key = 0;          // product key (risk::product_key)
  util::Array2D<int> burned_count;    // members with tig <= horizon
  util::Array2D<double> probability;  // burned_count / members
  std::vector<double> arrivals;       // [cell * members + k]

  [[nodiscard]] double arrival(int i, int j, int k) const {
    return arrivals[(static_cast<std::size_t>(j) * nx + i) *
                        static_cast<std::size_t>(members) +
                    static_cast<std::size_t>(k)];
  }

  // Nearest-rank q-quantile (q in [0,1]) of the arrival times among the
  // members that burned each cell; +inf where no member did. q=0 is the
  // earliest plausible arrival, q=1 the latest.
  [[nodiscard]] util::Array2D<double> arrival_quantile(double q) const;

  // Expected burned area [m^2]: sum of probability * cell area.
  [[nodiscard]] double expected_burned_area() const;
};

// Streaming/incremental reduction: construct for K members, fold each
// finished member's ignition-time field in (any order, any thread), then
// finalize once all K have arrived.
class BurnProbabilityAccumulator {
 public:
  BurnProbabilityAccumulator(int nx, int ny, double dx, double dy,
                             int members, double horizon);

  // Folds member k (0-based) in. Throws if k is out of range, already
  // added, or `tig` has the wrong shape. Thread-safe.
  void add_member(int k, const util::Array2D<double>& tig);

  // The finished product (copies the reduction state; the accumulator can
  // keep serving). Throws unless every member has been added.
  [[nodiscard]] BurnProbabilityGrid finalize() const;

 private:
  BurnProbabilityGrid grid_;
  std::vector<char> added_;  // per-member slot guard
  int added_count_ = 0;
  mutable std::mutex mu_;
};

// Skill of the thresholded probability surface against a reference burn
// (cells with ref_tig <= ref_horizon), the validation regime of the paper's
// Fig. 2 twin experiments: predicted = probability >= threshold.
struct Scores {
  double precision = 0;  // tp / (tp + fp); 0 when nothing is predicted
  double recall = 0;     // tp / (tp + fn); 0 when nothing is burned
  double f1 = 0;         // harmonic mean; 0 when precision + recall == 0
  long tp = 0, fp = 0, fn = 0, tn = 0;
};

[[nodiscard]] Scores score(const BurnProbabilityGrid& grid, double threshold,
                           const util::Array2D<double>& ref_tig,
                           double ref_horizon);

}  // namespace wfire::risk
