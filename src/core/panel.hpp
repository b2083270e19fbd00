// Contiguous panel scratch buffers that honor the payload mode, and where
// the SUMMA family's pivot panels live.
//
// A PanelBuffer is the staging area a rank uses to hold a pivot panel it
// sends or receives. In Real mode it owns rows*cols doubles; in Phantom
// mode it owns nothing but still describes the same wire size, so the
// algorithms' communication calls are byte-for-byte identical in both
// modes.
#pragma once

#include <vector>

#include "core/spec.hpp"
#include "grid/distribution.hpp"
#include "la/matrix.hpp"
#include "mpc/buffer.hpp"

namespace hs::core {

/// The owner of the pivot panel that starts at global index `pivot` of the
/// k dimension, when k is dealt over `ranks` grid ranks in distribution
/// blocks of `kb`: the root (grid column for A's panels, grid row for B's)
/// and the panel's first index in the root's local block. With kb = k/ranks
/// (the block-checkerboard layout) the root is pivot / kb; with kb = the
/// kernel's block (the block-cyclic layout) it rotates every kb indices.
struct PanelOwner {
  int root;
  index_t offset;
};

inline PanelOwner panel_owner(index_t pivot, index_t kb, int ranks) {
  const index_t block = pivot / kb;
  return {static_cast<int>(block % ranks), block / ranks * kb + pivot % kb};
}

/// One rank's share of C = A * B over an s x t grid: the extents of its
/// local blocks and the distribution block of each operand's k dimension
/// (what panel_owner takes as kb).
struct PanelLayout {
  index_t local_m;  // rows of the rank's A and C blocks
  index_t local_n;  // columns of its B and C blocks
  index_t a_kb;     // A's k dimension (columns), dealt over the t columns
  index_t b_kb;     // B's k dimension (rows), dealt over the s rows
};

/// The layout of grid rank `grid_rank` (row-major). cyclic_block = 0 is the
/// paper's block-checkerboard layout: one m/s x k/t block of A per rank.
/// Otherwise square blocks of cyclic_block are dealt round-robin over the
/// grid (ScaLAPACK style), and the local extents are numroc counts, so m
/// and n need not divide evenly.
inline PanelLayout panel_layout(const ProblemSpec& prob, grid::GridShape shape,
                                int grid_rank, index_t cyclic_block) {
  if (cyclic_block == 0)
    return {prob.m / shape.rows, prob.n / shape.cols, prob.k / shape.cols,
            prob.k / shape.rows};
  const grid::BlockCyclicDistribution c(prob.m, prob.n, cyclic_block,
                                        cyclic_block, shape.rows, shape.cols);
  return {c.local_rows(grid_rank / shape.cols),
          c.local_cols(grid_rank % shape.cols), cyclic_block, cyclic_block};
}

class PanelBuffer {
 public:
  PanelBuffer(index_t rows, index_t cols, PayloadMode mode)
      : rows_(rows), cols_(cols), mode_(mode) {
    HS_REQUIRE(rows >= 0 && cols >= 0);
    if (mode == PayloadMode::Real)
      storage_.resize(static_cast<std::size_t>(rows * cols));
  }

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  bool real() const noexcept { return mode_ == PayloadMode::Real; }

  /// Payload over the whole panel.
  mpc::Buf buf() {
    if (!real()) return mpc::Buf::phantom(static_cast<std::size_t>(rows_ * cols_));
    return mpc::Buf(std::span<double>(storage_));
  }

  /// Payload over rows [r0, r0+nr) (contiguous in row-major storage).
  mpc::Buf row_slice(index_t r0, index_t nr) {
    HS_REQUIRE(r0 >= 0 && nr >= 0 && r0 + nr <= rows_);
    const auto offset = static_cast<std::size_t>(r0 * cols_);
    const auto count = static_cast<std::size_t>(nr * cols_);
    if (!real()) return mpc::Buf::phantom(count);
    return mpc::Buf(std::span<double>(storage_).subspan(offset, count));
  }

  /// Matrix view over the storage (Real mode only).
  la::MatrixView view() {
    HS_REQUIRE_MSG(real(), "PanelBuffer::view on a phantom panel");
    return la::MatrixView(storage_.data(), rows_, cols_, cols_);
  }
  la::ConstMatrixView view() const {
    HS_REQUIRE_MSG(real(), "PanelBuffer::view on a phantom panel");
    return la::ConstMatrixView(storage_.data(), rows_, cols_, cols_);
  }

 private:
  index_t rows_;
  index_t cols_;
  PayloadMode mode_;
  std::vector<double> storage_;
};

}  // namespace hs::core
