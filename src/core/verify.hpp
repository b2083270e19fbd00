// Numerical verification of distributed results against generator-defined
// inputs.
//
// Inputs are pure functions of global indices (la::ElementFn), so the
// reference C block of any rank can be recomputed locally from the
// generators — no result shipping, no second distributed run. Each
// generator element is evaluated once per block: an A row panel
// (rows x k) and a B column panel (k x cols), multiplied by la::gemm_ref.
// Errors are NaN when any compared element is NaN (see la/norms.hpp).
#pragma once

#include "core/spec.hpp"
#include "grid/distribution.hpp"
#include "la/generate.hpp"
#include "la/matrix.hpp"

namespace hs::core {

/// Reference C block [row0, row0+rows) x [col0, col0+cols) of C = A*B with
/// A, B given by element generators and inner dimension k.
la::Matrix reference_c_block(const la::ElementFn& a, const la::ElementFn& b,
                             index_t k, index_t row0, index_t col0,
                             index_t rows, index_t cols);

/// max |c_local - reference| over the block.
double verify_c_block(la::ConstMatrixView c_local, const la::ElementFn& a,
                      const la::ElementFn& b, index_t k, index_t row0,
                      index_t col0);

/// Block-cyclic variant: local element (i, j) corresponds to global
/// (dist.global_row(grid_row, i), dist.global_col(grid_col, j)).
double verify_c_cyclic(la::ConstMatrixView c_local,
                       const grid::BlockCyclicDistribution& dist,
                       int grid_row, int grid_col, const la::ElementFn& a,
                       const la::ElementFn& b, index_t k);

}  // namespace hs::core
