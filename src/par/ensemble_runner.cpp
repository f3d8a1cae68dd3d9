#include "par/ensemble_runner.h"

#include "util/omp_compat.h"
#include "util/stopwatch.h"

namespace wfire::par {

void EnsembleRunner::run_phase(const std::string& name,
                               const std::function<void()>& task) {
  util::Stopwatch sw;
  util::ScopedOmpNumThreads scoped(width_);
  task();
  timings_.push_back({name, sw.seconds()});
}

}  // namespace wfire::par
