#include "risk/burn_probability.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace wfire::risk {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

util::Array2D<double> BurnProbabilityGrid::arrival_quantile(double q) const {
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("arrival_quantile: q outside [0, 1]");
  util::Array2D<double> out(nx, ny, kInf);
  std::vector<double> cell;  // finite arrivals of one cell, reused
  cell.reserve(static_cast<std::size_t>(members));
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      cell.clear();
      const std::size_t base =
          (static_cast<std::size_t>(j) * nx + i) *
          static_cast<std::size_t>(members);
      for (int k = 0; k < members; ++k)
        if (std::isfinite(arrivals[base + static_cast<std::size_t>(k)]))
          cell.push_back(arrivals[base + static_cast<std::size_t>(k)]);
      if (cell.empty()) continue;
      std::sort(cell.begin(), cell.end());
      const auto idx = static_cast<std::size_t>(std::floor(
          q * static_cast<double>(cell.size() - 1) + 0.5));
      out(i, j) = cell[idx];
    }
  }
  return out;
}

double BurnProbabilityGrid::expected_burned_area() const {
  double p = 0;
  for (const double v : probability) p += v;
  return p * dx * dy;
}

BurnProbabilityAccumulator::BurnProbabilityAccumulator(int nx, int ny,
                                                       double dx, double dy,
                                                       int members,
                                                       double horizon) {
  if (nx < 1 || ny < 1)
    throw std::invalid_argument("BurnProbabilityAccumulator: empty grid");
  if (members < 1)
    throw std::invalid_argument("BurnProbabilityAccumulator: members < 1");
  grid_.nx = nx;
  grid_.ny = ny;
  grid_.dx = dx;
  grid_.dy = dy;
  grid_.horizon = horizon;
  grid_.members = members;
  grid_.burned_count = util::Array2D<int>(nx, ny, 0);
  grid_.probability = util::Array2D<double>(nx, ny, 0.0);
  grid_.arrivals.assign(static_cast<std::size_t>(nx) * ny *
                            static_cast<std::size_t>(members),
                        kInf);
  added_.assign(static_cast<std::size_t>(members), 0);
}

void BurnProbabilityAccumulator::add_member(int k,
                                            const util::Array2D<double>& tig) {
  std::lock_guard<std::mutex> lock(mu_);
  if (k < 0 || k >= grid_.members)
    throw std::out_of_range("add_member: member index out of range");
  if (added_[static_cast<std::size_t>(k)])
    throw std::logic_error("add_member: member already added");
  if (tig.nx() != grid_.nx || tig.ny() != grid_.ny)
    throw std::invalid_argument("add_member: tig shape mismatch");
  const std::size_t n = tig.size();
  const double* t = tig.data();
  int* count = grid_.burned_count.data();
  const auto members = static_cast<std::size_t>(grid_.members);
  for (std::size_t c = 0; c < n; ++c) {
    if (t[c] <= grid_.horizon) {
      ++count[c];
      grid_.arrivals[c * members + static_cast<std::size_t>(k)] = t[c];
    }
  }
  added_[static_cast<std::size_t>(k)] = 1;
  ++added_count_;
}

BurnProbabilityGrid BurnProbabilityAccumulator::finalize() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (added_count_ != grid_.members)
    throw std::logic_error("finalize: " +
                           std::to_string(grid_.members - added_count_) +
                           " members missing");
  BurnProbabilityGrid out = grid_;
  const double inv = 1.0 / grid_.members;
  const int* count = out.burned_count.data();
  double* prob = out.probability.data();
  for (std::size_t c = 0; c < out.probability.size(); ++c)
    prob[c] = count[c] * inv;
  return out;
}

Scores score(const BurnProbabilityGrid& grid, double threshold,
             const util::Array2D<double>& ref_tig, double ref_horizon) {
  if (ref_tig.nx() != grid.nx || ref_tig.ny() != grid.ny)
    throw std::invalid_argument("score: reference shape mismatch");
  Scores s;
  const double* p = grid.probability.data();
  const double* t = ref_tig.data();
  for (std::size_t c = 0; c < ref_tig.size(); ++c) {
    const bool predicted = p[c] >= threshold;
    const bool burned = t[c] <= ref_horizon;
    if (predicted && burned)
      ++s.tp;
    else if (predicted)
      ++s.fp;
    else if (burned)
      ++s.fn;
    else
      ++s.tn;
  }
  if (s.tp + s.fp > 0) s.precision = static_cast<double>(s.tp) / (s.tp + s.fp);
  if (s.tp + s.fn > 0) s.recall = static_cast<double>(s.tp) / (s.tp + s.fn);
  if (s.precision + s.recall > 0)
    s.f1 = 2.0 * s.precision * s.recall / (s.precision + s.recall);
  return s;
}

}  // namespace wfire::risk
