// Matrix norms and comparisons, used by tests and distributed verification.
//
// The max-folds propagate NaN: max_abs and max_abs_diff return NaN when any
// element (or compared difference) is NaN, so a `max_error <= bound` check
// fails on a NaN result instead of skipping it (std::max(best, x) returns
// `best` when x is NaN). approx_equal is false in that case.
#pragma once

#include <cmath>

#include "la/matrix.hpp"

namespace hs::la {

/// max(best, x), but NaN when either argument is NaN. Folding with it keeps
/// a NaN once seen.
inline double max_propagating_nan(double best, double x) noexcept {
  return best < x || std::isnan(x) ? x : best;
}

/// Frobenius norm sqrt(sum a_ij^2).
double frobenius_norm(ConstMatrixView a);

/// max |a_ij|; NaN if any a_ij is NaN.
double max_abs(ConstMatrixView a);

/// max |a_ij - b_ij| (same shape required); NaN if any difference is NaN.
double max_abs_diff(ConstMatrixView a, ConstMatrixView b);

/// Relative error ||a - b||_F / max(||b||_F, tiny).
double relative_error(ConstMatrixView a, ConstMatrixView b);

/// True when max_abs_diff(a,b) <= atol + rtol * max_abs(b); false when
/// either side holds a NaN.
bool approx_equal(ConstMatrixView a, ConstMatrixView b, double rtol = 1e-12,
                  double atol = 1e-13);

}  // namespace hs::la
