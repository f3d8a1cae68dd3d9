#include "par/ensemble_runner.h"

#include "util/omp_compat.h"
#include "util/stopwatch.h"

namespace wfire::par {

void EnsembleRunner::run_phase(const std::string& name, int members,
                               const std::function<void(int)>& task) {
  util::Stopwatch sw;
  pool_.parallel_for(members, task);
  timings_.push_back({name, sw.seconds()});
}

void EnsembleRunner::run_serial_phase(const std::string& name,
                                      const std::function<void()>& task) {
  util::Stopwatch sw;
  task();
  timings_.push_back({name, sw.seconds()});
}

void EnsembleRunner::run_batch_phase(const std::string& name,
                                     const std::function<void()>& task) {
  util::Stopwatch sw;
  util::ScopedOmpNumThreads scoped(pool_.size());
  task();
  timings_.push_back({name, sw.seconds()});
}

}  // namespace wfire::par
