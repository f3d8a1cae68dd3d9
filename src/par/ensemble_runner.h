// Member-parallel execution with phase timing — the "advancing the ensemble
// in time" half of the paper's Fig. 2, where each ensemble member runs
// independently on its subset of processors and the EnKF is the global
// synchronization point. The timing breakdown feeds the Fig. 2 scaling
// bench.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "par/thread_pool.h"

namespace wfire::par {

struct PhaseTiming {
  std::string name;
  double seconds = 0;
};

class EnsembleRunner {
 public:
  explicit EnsembleRunner(int threads = 0) : pool_(threads) {}

  [[nodiscard]] int threads() const { return pool_.size(); }

  // Runs task(k) for each member k on the pool; records the phase wall time
  // under `name`. Member tasks run serial kernels, so the pool alone owns
  // the cores in this phase.
  void run_phase(const std::string& name, int members,
                 const std::function<void(int)>& task);

  // Runs a serial (all-processors) phase, e.g. the EnKF analysis.
  void run_serial_phase(const std::string& name,
                        const std::function<void()>& task);

  // Runs a fused batched phase (e.g. the SoA ensemble advance) on the
  // calling thread with its OpenMP team widened to the pool width: one team
  // spans all members while the pool sits idle.
  void run_batch_phase(const std::string& name,
                       const std::function<void()>& task);

  [[nodiscard]] const std::vector<PhaseTiming>& timings() const {
    return timings_;
  }
  void clear_timings() { timings_.clear(); }

 private:
  ThreadPool pool_;
  std::vector<PhaseTiming> timings_;
};

}  // namespace wfire::par
