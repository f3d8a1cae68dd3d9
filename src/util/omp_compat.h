// OpenMP pragma shim: WFIRE_PRAGMA_OMP(omp parallel for ...) expands to the
// real pragma when the build enables OpenMP (WFIRE_HAVE_OPENMP) and to
// nothing otherwise, so serial builds compile warning-clean without
// -Wunknown-pragmas noise.
#pragma once

#if defined(WFIRE_HAVE_OPENMP)
#define WFIRE_OMP_STRINGIFY(...) #__VA_ARGS__
#define WFIRE_PRAGMA_OMP(...) _Pragma(WFIRE_OMP_STRINGIFY(__VA_ARGS__))
#include <omp.h>
#else
#define WFIRE_PRAGMA_OMP(...)
#endif

namespace wfire::util {

// RAII override of the calling thread's OpenMP team width (the nthreads ICV
// is per-thread). EnsembleRunner::run_phase runs each assimilation-cycle
// phase at the cycle's width with it; benches and tests pin a width with it.
// No-op in serial builds and for n <= 0.
class ScopedOmpNumThreads {
 public:
#if defined(WFIRE_HAVE_OPENMP)
  explicit ScopedOmpNumThreads(int n) : prev_(omp_get_max_threads()) {
    if (n > 0) omp_set_num_threads(n);
  }
  ~ScopedOmpNumThreads() { omp_set_num_threads(prev_); }
#else
  explicit ScopedOmpNumThreads(int) {}
  ~ScopedOmpNumThreads() = default;
#endif
  ScopedOmpNumThreads(const ScopedOmpNumThreads&) = delete;
  ScopedOmpNumThreads& operator=(const ScopedOmpNumThreads&) = delete;

 private:
#if defined(WFIRE_HAVE_OPENMP)
  int prev_;
#endif
};

}  // namespace wfire::util
