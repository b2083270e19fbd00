// Local dense matrix multiplication kernels.
//
// The paper runs DGEMM from vendor BLAS (ESSL / MKL) on each node; this
// module is our from-scratch substitute. `gemm` is a cache-blocked,
// panel-packing implementation with a register-tiled micro-kernel;
// `gemm_ref` is the obviously-correct triple loop used as the oracle in
// tests and by the real-payload verification (core/verify.hpp). Both compute
// C += A * B (accumulating, as SUMMA's rank-b updates require).
#pragma once

#include "la/matrix.hpp"

namespace hs::la {

/// Reference kernel: C += A * B by the naive triple loop (ikj order).
/// Shapes: A is m x k, B is k x n, C is m x n.
void gemm_ref(ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// Blocked/packed kernel: C += A * B. Same contract as gemm_ref; faster via
/// L2/L1 cache blocking and an unrolled micro-kernel the compiler can
/// vectorize. Handles arbitrary (including tiny and non-multiple) shapes.
void gemm(ConstMatrixView a, ConstMatrixView b, MatrixView c);

/// Flop count of one C += A*B update: 2 * m * n * k (one multiply and one
/// add per term — the paper's combined gamma per flop pair counts m*n*k
/// "fused" operations; we expose both conventions).
inline double gemm_flops(index_t m, index_t n, index_t k) noexcept {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

/// Fused multiply-add pair count (the paper's gamma multiplies this).
inline double gemm_fma_pairs(index_t m, index_t n, index_t k) noexcept {
  return static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace hs::la
