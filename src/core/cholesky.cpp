#include "core/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "core/hier_bcast.hpp"
#include "core/panel.hpp"
#include "grid/distribution.hpp"
#include "grid/process_grid.hpp"
#include "la/factor.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"

namespace hs::core {

void check_cholesky_preconditions(grid::GridShape shape, index_t n,
                                  index_t block) {
  HS_REQUIRE_MSG(shape.rows == shape.cols,
                 "Cholesky requires a square process grid (the transpose "
                 "path pairs grid row i with grid col i)");
  HS_REQUIRE_MSG(n % shape.rows == 0,
                 "n=" << n << " must be divisible by the grid dimension");
  HS_REQUIRE_MSG((n / shape.rows) % block == 0,
                 "block=" << block << " must divide the local extent "
                          << n / shape.rows);
}

la::ElementFn cholesky_input_elements(std::uint64_t seed, index_t n) {
  const la::ElementFn noise = la::uniform_elements(seed);
  const double shift = static_cast<double>(n);
  return [noise, shift](index_t i, index_t j) {
    const index_t lo = std::min(i, j);
    const index_t hi = std::max(i, j);
    return noise(lo, hi) + (i == j ? shift : 0.0);
  };
}

namespace {

constexpr int kTransposeTag = 17;

}  // namespace

desim::Task<void> cholesky_rank(CholeskyArgs args) {
  const grid::ProcessGrid pg(args.comm, args.shape);
  const BcastChain row_chain(pg.row_comm(), args.row_levels);
  const BcastChain col_chain(pg.col_comm(), args.col_levels);
  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();

  const index_t b = args.block;
  const int q = args.shape.rows;
  const index_t local_dim = args.n / q;
  const PayloadMode mode =
      args.local_a == nullptr ? PayloadMode::Phantom : PayloadMode::Real;

  trace::RankStats scratch_stats;
  trace::RankStats& stats = args.stats ? *args.stats : scratch_stats;

  PanelBuffer diag(b, b, mode);
  PanelBuffer l_left(local_dim, b, mode);   // my rows' L panel
  PanelBuffer l_right(local_dim, b, mode);  // my cols' L panel (transposed use)

  const index_t steps = args.n / b;
  for (index_t k = 0; k < steps; ++k) {
    const index_t pivot = k * b;
    const int owner = static_cast<int>(pivot / local_dim);  // row == col
    const index_t local_0 = pivot - static_cast<index_t>(owner) * local_dim;

    const index_t row_start = std::clamp<index_t>(
        pivot + b - static_cast<index_t>(pg.my_row()) * local_dim, 0,
        local_dim);
    const index_t col_start = std::clamp<index_t>(
        pivot + b - static_cast<index_t>(pg.my_col()) * local_dim, 0,
        local_dim);
    const index_t trailing_rows = local_dim - row_start;
    const index_t trailing_cols = local_dim - col_start;
    // Trailing extent of a given grid row index (same formula the peers
    // use; needed to size transposed panels consistently).
    auto trailing_of = [&](int grid_index) {
      return local_dim - std::clamp<index_t>(
                             pivot + b -
                                 static_cast<index_t>(grid_index) * local_dim,
                             0, local_dim);
    };

    // 1. Diagonal factor + broadcast down the pivot column.
    if (pg.my_row() == owner && pg.my_col() == owner) {
      {
        trace::PhaseTimer timer(stats.comp_time, engine);
        co_await machine.compute(self, static_cast<double>(b) *
                                       static_cast<double>(b) *
                                       static_cast<double>(b) / 3.0);
      }
      if (mode == PayloadMode::Real) {
        la::MatrixView block_kk = args.local_a->block(local_0, local_0, b, b);
        la::cholesky_factor_inplace(block_kk);
        diag.view().copy_from(block_kk);
      }
    }
    if (pg.my_col() == owner) {
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await mpc::bcast(pg.col_comm(), owner, diag.buf(), args.bcast_algo);
    }

    // 2. Panel solve on the pivot column.
    if (pg.my_col() == owner && trailing_rows > 0) {
      const double flops = static_cast<double>(trailing_rows) *
                           static_cast<double>(b) * static_cast<double>(b);
      {
        trace::PhaseTimer timer(stats.comp_time, engine);
        co_await machine.compute(self, flops);
      }
      if (mode == PayloadMode::Real) {
        la::MatrixView a_panel =
            args.local_a->block(row_start, local_0, trailing_rows, b);
        la::trsm_right_lower_transposed(diag.view(), a_panel);
        l_left.view().block(0, 0, trailing_rows, b).copy_from(a_panel);
      }
    }

    // 3a. Left factor: broadcast the L panel along my grid row.
    if (trailing_rows > 0) {
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await hier_bcast(row_chain, owner, l_left.row_slice(0, trailing_rows),
                          args.bcast_algo);
    }

    // 3b. Right factor: the pivot-column rank of grid row j hands its panel
    //     to the diagonal rank (j, j), which broadcasts it down column j.
    const index_t my_row_trailing = trailing_rows;
    if (pg.my_col() == owner && pg.my_row() != owner &&
        my_row_trailing > 0) {
      // I am (j, owner): ship to (j, j) unless I already am the diagonal.
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await pg.row_comm().send(pg.my_row(),
                                  l_left.row_slice(0, my_row_trailing),
                                  kTransposeTag);
    }
    const index_t col_panel_rows = trailing_of(pg.my_col());
    if (col_panel_rows > 0) {
      if (pg.my_row() == pg.my_col()) {  // diagonal rank of column j
        if (pg.my_col() == owner) {
          // Panel already local (I computed it).
          if (mode == PayloadMode::Real)
            l_right.view()
                .block(0, 0, col_panel_rows, b)
                .copy_from(l_left.view().block(0, 0, col_panel_rows, b));
        } else {
          trace::PhaseTimer timer(stats.comm_time, engine);
          co_await pg.row_comm().recv(
              owner, l_right.row_slice(0, col_panel_rows), kTransposeTag);
        }
      }
      {
        trace::PhaseTimer timer(stats.comm_time, engine);
        co_await hier_bcast(col_chain, pg.my_col(),
                            l_right.row_slice(0, col_panel_rows),
                            args.bcast_algo);
      }
    }

    // 4. Trailing update A -= L_left * L_right^T (full trailing rectangle;
    //    the redundant upper-triangle work is charged as computed).
    if (trailing_rows > 0 && trailing_cols > 0) {
      const double flops = la::gemm_flops(trailing_rows, trailing_cols, b);
      {
        trace::PhaseTimer timer(stats.comp_time, engine);
        co_await machine.compute(self, flops);
      }
      if (mode == PayloadMode::Real) {
        la::ConstMatrixView left(l_left.view().data(), trailing_rows, b, b);
        la::ConstMatrixView right(l_right.view().data(), trailing_cols, b, b);
        la::gemm_subtract_transb(
            left, right,
            args.local_a->block(row_start, col_start, trailing_rows,
                                trailing_cols));
      }
      stats.flops += static_cast<std::uint64_t>(flops);
    }
  }
}

}  // namespace hs::core
