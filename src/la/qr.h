// Householder QR R-factors for the square-root EnKF ensemble-space analysis.
// The EnKF replaces the ensemble by linear combinations "with the
// coefficients obtained by solving a least squares problem" (paper
// Sec. 3.3); the analysis needs only the upper-triangular R of one stacked
// tall-skinny panel plus two triangular solves against it.
//
// The production factorization is communication-avoiding TSQR
// (tsqr_factor_r_in_place): the panel is cut into row blocks, each factored
// independently (OpenMP across blocks), and the stacked n x n R factors are
// reduced pairwise in a binary tree. A panel too short to split is a single
// serial leaf. The blocking depends only on the shape, so results are
// identical for every thread count. qr_factor_in_place is the serial
// column-by-column Householder chain, kept as the test oracle.
#pragma once

#include "la/matrix.h"
#include "la/workspace.h"

namespace wfire::la {

// Reference factorization of A (m x n, m >= n) in place: R on/above the
// diagonal, Householder vectors (scaled so v[j] = 1) below it, scalars in
// `beta` (resized to n). Throws on m < n.
void qr_factor_in_place(Matrix& A, Vector& beta);

// Triangular solves with the n x n upper-triangular R stored in the top of
// the factored matrix `qr` (n = qr.cols()); B has n rows and is overwritten
// column by column (OpenMP-parallel across right-hand sides). Throws
// std::runtime_error on a zero diagonal (rank-deficient R).
void r_solve_in_place(const Matrix& qr, Matrix& B);   // R X = B
void rt_solve_in_place(const Matrix& qr, Matrix& B);  // R^T X = B

// Number of TSQR row blocks for an m x n panel (1 = no split, serial leaf).
// A shape-only rule: blocks of max(2n, 128) rows once m reaches two blocks.
[[nodiscard]] int tsqr_nblocks(int m, int n);

// TSQR factorization of A (m x n, m >= n): on return the leading n x n
// upper triangle of A is R (the rest of A is scratch). R agrees with the
// reference up to the sign of each row. Reflector bookkeeping stays in `ws`
// scratch (keys "qr.tsqr.*"), so with a warm workspace the factorization
// allocates nothing. Throws on m < n.
void tsqr_factor_r_in_place(Matrix& A, Workspace* ws = nullptr);

}  // namespace wfire::la
