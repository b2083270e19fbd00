#include "la/matrix.hpp"

#include <cstring>

namespace hs::la {

void MatrixView::copy_from(ConstMatrixView src) const {
  HS_REQUIRE(src.rows() == rows_ && src.cols() == cols_);
  // An empty view may hold a null pointer, which memcpy must never see.
  if (empty()) return;
  if (contiguous() && src.contiguous()) {
    std::memcpy(data_, src.data(),
                static_cast<std::size_t>(rows_ * cols_) * sizeof(double));
    return;
  }
  for (index_t i = 0; i < rows_; ++i)
    std::memcpy(row(i), src.row(i),
                static_cast<std::size_t>(cols_) * sizeof(double));
}

void MatrixView::add(ConstMatrixView other) const {
  HS_REQUIRE(other.rows() == rows_ && other.cols() == cols_);
  for (index_t i = 0; i < rows_; ++i) {
    double* dst = row(i);
    const double* src = other.row(i);
    for (index_t j = 0; j < cols_; ++j) dst[j] += src[j];
  }
}

}  // namespace hs::la
