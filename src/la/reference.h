// Reference oracles for the dense LA kernels: the original naive loops the
// blocked gemm kernels in la/blas.h are tested against. Same signatures and
// results (to rounding) as the production kernels, no blocking and no
// threads. Only tests and benches include this header; no
// production code path reaches these functions. Shapes must conform (the
// production entry points check them; the oracles trust their callers).
#pragma once

#include "la/matrix.h"

namespace wfire::la::reference {

void gemm(bool transA, bool transB, double alpha, const Matrix& A,
          const Matrix& B, double beta, Matrix& C);

void gemm_scaled(bool transA, bool transB, double alpha, const Matrix& A,
                 const Vector& w, const Matrix& B, double beta, Matrix& C);

}  // namespace wfire::la::reference
