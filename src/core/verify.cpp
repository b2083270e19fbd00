#include "core/verify.hpp"

#include "la/gemm.hpp"
#include "la/norms.hpp"

namespace hs::core {

namespace {

/// a_panel * b_panel by la::gemm_ref: the naive ikj loop, independent of
/// the blocked la::gemm the kernels run.
la::Matrix reference_product(const la::Matrix& a_panel,
                             const la::Matrix& b_panel) {
  la::Matrix reference(a_panel.rows(), b_panel.cols());
  la::gemm_ref(a_panel.view(), b_panel.view(), reference.view());
  return reference;
}

}  // namespace

la::Matrix reference_c_block(const la::ElementFn& a, const la::ElementFn& b,
                             index_t k, index_t row0, index_t col0,
                             index_t rows, index_t cols) {
  la::Matrix a_panel(rows, k);
  la::fill_from(a_panel.view(), a, row0, 0);
  la::Matrix b_panel(k, cols);
  la::fill_from(b_panel.view(), b, 0, col0);
  return reference_product(a_panel, b_panel);
}

double verify_c_block(la::ConstMatrixView c_local, const la::ElementFn& a,
                      const la::ElementFn& b, index_t k, index_t row0,
                      index_t col0) {
  const la::Matrix reference = reference_c_block(a, b, k, row0, col0,
                                                 c_local.rows(),
                                                 c_local.cols());
  return la::max_abs_diff(c_local, reference.view());
}

double verify_c_cyclic(la::ConstMatrixView c_local,
                       const grid::BlockCyclicDistribution& dist,
                       int grid_row, int grid_col, const la::ElementFn& a,
                       const la::ElementFn& b, index_t k) {
  // Gather the panels at this rank's global rows and columns.
  la::Matrix a_panel(c_local.rows(), k);
  for (index_t i = 0; i < c_local.rows(); ++i)
    la::fill_from(a_panel.block(i, 0, 1, k), a, dist.global_row(grid_row, i),
                  0);
  la::Matrix b_panel(k, c_local.cols());
  for (index_t j = 0; j < c_local.cols(); ++j)
    la::fill_from(b_panel.block(0, j, k, 1), b, 0,
                  dist.global_col(grid_col, j));
  const la::Matrix reference = reference_product(a_panel, b_panel);
  return la::max_abs_diff(c_local, reference.view());
}

}  // namespace hs::core
