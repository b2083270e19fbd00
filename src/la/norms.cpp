#include "la/norms.hpp"

#include <algorithm>
#include <cmath>

namespace hs::la {

double frobenius_norm(ConstMatrixView a) {
  // Two-pass scaled accumulation to avoid overflow for large magnitudes is
  // overkill for test matrices; plain accumulation in double is adequate for
  // the value ranges our generators produce (|a_ij| <= O(1)).
  double sum = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row(i);
    for (index_t j = 0; j < a.cols(); ++j) sum += row[j] * row[j];
  }
  return std::sqrt(sum);
}

double max_abs(ConstMatrixView a) {
  double best = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const double* row = a.row(i);
    for (index_t j = 0; j < a.cols(); ++j)
      best = max_propagating_nan(best, std::fabs(row[j]));
  }
  return best;
}

double max_abs_diff(ConstMatrixView a, ConstMatrixView b) {
  HS_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols());
  double best = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const double* ra = a.row(i);
    const double* rb = b.row(i);
    for (index_t j = 0; j < a.cols(); ++j)
      best = max_propagating_nan(best, std::fabs(ra[j] - rb[j]));
  }
  return best;
}

double relative_error(ConstMatrixView a, ConstMatrixView b) {
  HS_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols());
  double num = 0.0;
  double den = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    const double* ra = a.row(i);
    const double* rb = b.row(i);
    for (index_t j = 0; j < a.cols(); ++j) {
      const double d = ra[j] - rb[j];
      num += d * d;
      den += rb[j] * rb[j];
    }
  }
  constexpr double kTiny = 1e-300;
  return std::sqrt(num) / std::max(std::sqrt(den), kTiny);
}

bool approx_equal(ConstMatrixView a, ConstMatrixView b, double rtol,
                  double atol) {
  return max_abs_diff(a, b) <= atol + rtol * max_abs(b);
}

}  // namespace hs::la
