// Kernel backend selection for the dense LA layer. Two implementations of
// every hot kernel (gemm, syrk, ger, Cholesky) coexist:
//  - kBlocked: cache-blocked, panel-packed, OpenMP-threaded — the default;
//  - kReference: the original naive triple loops — kept as the ground truth
//    the blocked kernels are property-tested against.
// The process-wide default comes from the environment at first use
// (WFIRE_LA_BACKEND=blocked|reference) and can be overridden
// programmatically; tests use ScopedBackend, which can also move the
// blocked kernels' tile edge.
//
// The gemm/syrk pack step also exposes a per-column scale hook
// (gemm_scaled / syrk_scaled in la/blas.h): a diagonal weight along the
// contraction dimension is applied while panels are packed, so diagonal
// row/column scalings (the EnKF's R^{-1/2} observation weighting) fuse into
// the product instead of costing separate m x N sweeps.
#pragma once

namespace wfire::la {

enum class Backend { kBlocked, kReference };

// Process-wide backend for all dispatching kernels.
[[nodiscard]] Backend backend();
void set_backend(Backend b);

// Tile edge used by the blocked kernels (default 64, clamped to [8, 1024]).
[[nodiscard]] int block_size();
void set_block_size(int nb);

// RAII backend (and optionally block size) override for tests.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend b) : prev_(backend()) { set_backend(b); }
  ScopedBackend(Backend b, int nb)
      : prev_(backend()), prev_nb_(block_size()) {
    set_backend(b);
    set_block_size(nb);
  }
  ~ScopedBackend() {
    set_backend(prev_);
    if (prev_nb_ > 0) set_block_size(prev_nb_);
  }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  Backend prev_;
  int prev_nb_ = 0;
};

}  // namespace wfire::la
