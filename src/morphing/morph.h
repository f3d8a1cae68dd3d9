// The morphing transform (paper Sec. 3.3, Eq. (1) with the lead term
// corrected to u0; see DESIGN.md): given a reference field u0 and a
// registration mapping T with u ~= u0 o (I + T), the registration residual
//
//     r = u o (I + T)^{-1} - u0
//
// turns u into the additive representation [r, T] (encode), and
//
//     u = (u0 + r) o (I + T)
//
// turns it back (decode). Intermediate states along the morphing path,
//
//     u_lambda = (u0 + lambda r) o (I + lambda T),   0 <= lambda <= 1,
//
// are decodes of [lambda r, lambda T], with u_0 = u0 and u_1 = u (up to
// interpolation error). The morphing EnKF makes *linear combinations* of
// [r, T] representations meaningful: they move the fire, not just scale it.
// Fields are exchanged as flat spans in Array2D storage order, so both
// kernels read and write extended-state columns directly.
#pragma once

#include <span>

#include "morphing/registration.h"
#include "morphing/warp.h"

namespace wfire::morphing {

// Encode: r = u o (I+T)^{-1} - u0, given the inverse mapping
// Tinv = invert(T), so one inversion serves every field that shares T.
void morph_residual(const util::Array2D<double>& u,
                    const util::Array2D<double>& u0, const Mapping& Tinv,
                    std::span<double> r);

// Decode: out = (u0 + r) o (I + T).
void morph_decode(const util::Array2D<double>& u0, std::span<const double> r,
                  const Mapping& T, util::Array2D<double>& out);

}  // namespace wfire::morphing
