// Phase log of the assimilation cycle (the paper's Fig. 2): each phase runs
// on the calling thread's OpenMP team at the runner's width, and its wall
// time is recorded under the phase name. The member-parallel phases open
// one team over all members; the EnKF is the global phase on the same team.
// The timing breakdown feeds the Fig. 2 scaling bench and perfbench.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace wfire::par {

struct PhaseTiming {
  std::string name;
  double seconds = 0;
};

class EnsembleRunner {
 public:
  // width <= 0 keeps the caller's OpenMP default.
  explicit EnsembleRunner(int width) : width_(width) {}

  // Runs task() with the calling thread's OpenMP team width set to the
  // runner's width, and records the phase wall time under `name`.
  void run_phase(const std::string& name, const std::function<void()>& task);

  [[nodiscard]] const std::vector<PhaseTiming>& timings() const {
    return timings_;
  }
  void clear_timings() { timings_.clear(); }

 private:
  int width_;
  std::vector<PhaseTiming> timings_;
};

}  // namespace wfire::par
