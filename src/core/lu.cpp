#include "core/lu.hpp"

#include <algorithm>

#include "core/hier_bcast.hpp"
#include "core/panel.hpp"
#include "core/task_plan.hpp"
#include "grid/distribution.hpp"
#include "grid/process_grid.hpp"
#include "la/factor.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"

namespace hs::core {

void check_lu_preconditions(grid::GridShape shape, index_t n, index_t block) {
  HS_REQUIRE_MSG(n % shape.rows == 0 && n % shape.cols == 0,
                 "n=" << n << " must be divisible by both grid dimensions");
  HS_REQUIRE_MSG((n / shape.rows) % block == 0 &&
                     (n / shape.cols) % block == 0,
                 "block=" << block << " must divide the local extents "
                          << n / shape.rows << " and " << n / shape.cols);
}

la::ElementFn lu_input_elements(std::uint64_t seed, index_t n) {
  const la::ElementFn noise = la::uniform_elements(seed);
  const double shift = static_cast<double>(n);
  return [noise, shift](index_t i, index_t j) {
    return noise(i, j) + (i == j ? shift : 0.0);
  };
}

namespace {

/// The blocking (D = 0) schedule.
desim::Task<void> lu_loop(LuArgs args) {
  const grid::ProcessGrid pg(args.comm, args.shape);
  const BcastChain row_chain(pg.row_comm(), args.row_levels);
  const BcastChain col_chain(pg.col_comm(), args.col_levels);
  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();

  const index_t b = args.block;
  const index_t local_rows = args.n / pg.rows();
  const index_t local_cols = args.n / pg.cols();
  const PayloadMode mode =
      args.local_a == nullptr ? PayloadMode::Phantom : PayloadMode::Real;

  trace::RankStats scratch_stats;
  trace::RankStats& stats = args.stats ? *args.stats : scratch_stats;

  PanelBuffer diag(b, b, mode);
  PanelBuffer l_panel(local_rows, b, mode);  // sized for the worst case
  PanelBuffer u_panel(b, local_cols, mode);

  const index_t steps = args.n / b;
  for (index_t k = 0; k < steps; ++k) {
    args.tracer.begin_step(engine, k, -1);
    const index_t pivot = k * b;
    const int owner_row = static_cast<int>(pivot / local_rows);
    const int owner_col = static_cast<int>(pivot / local_cols);
    const index_t local_r0 = pivot - static_cast<index_t>(owner_row) * local_rows;
    const index_t local_c0 = pivot - static_cast<index_t>(owner_col) * local_cols;

    // My trailing region (global indices >= pivot + b), in local terms.
    const index_t row_start =
        std::clamp<index_t>(pivot + b -
                                static_cast<index_t>(pg.my_row()) * local_rows,
                            0, local_rows);
    const index_t col_start =
        std::clamp<index_t>(pivot + b -
                                static_cast<index_t>(pg.my_col()) * local_cols,
                            0, local_cols);
    const index_t trailing_rows = local_rows - row_start;
    const index_t trailing_cols = local_cols - col_start;

    // 1. Factor the diagonal block; share it down the pivot column (for
    //    the L solves) and across the pivot row (for the U solves).
    if (pg.my_row() == owner_row && pg.my_col() == owner_col) {
      const double flops = 2.0 / 3.0 * static_cast<double>(b) *
                           static_cast<double>(b) * static_cast<double>(b);
      {
        trace::PhaseTimer timer(stats.comp_time, engine);
        trace::ComputeSpanGuard span(args.tracer, engine, flops);
        co_await machine.compute(self, flops);
      }
      if (mode == PayloadMode::Real) {
        la::MatrixView block_kk =
            args.local_a->block(local_r0, local_c0, b, b);
        la::lu_factor_inplace(block_kk);
        diag.view().copy_from(block_kk);
      }
    }
    if (pg.my_col() == owner_col) {
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await mpc::bcast(pg.col_comm(), owner_row, diag.buf(),
                          args.bcast_algo);
    }
    if (pg.my_row() == owner_row) {
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await mpc::bcast(pg.row_comm(), owner_col, diag.buf(),
                          args.bcast_algo);
    }

    // 2 + 3a. Pivot-column ranks form their L panel and broadcast it along
    //         their grid row (hierarchically).
    mpc::Buf l_buf = l_panel.row_slice(0, trailing_rows);
    if (trailing_rows > 0) {
      if (pg.my_col() == owner_col) {
        const double flops = static_cast<double>(trailing_rows) *
                             static_cast<double>(b) * static_cast<double>(b);
        {
          trace::PhaseTimer timer(stats.comp_time, engine);
          trace::ComputeSpanGuard span(args.tracer, engine, flops);
          co_await machine.compute(self, flops);
        }
        if (mode == PayloadMode::Real) {
          la::MatrixView a_panel =
              args.local_a->block(row_start, local_c0, trailing_rows, b);
          la::trsm_right_upper(diag.view(), a_panel);
          l_panel.view()
              .block(0, 0, trailing_rows, b)
              .copy_from(a_panel);
        }
      }
      {
        trace::PhaseTimer timer(stats.comm_time, engine);
        co_await hier_bcast(row_chain, owner_col, l_buf, args.bcast_algo);
      }
    }

    // 2 + 3b. Pivot-row ranks form their U panel and broadcast it along
    //         their grid column (hierarchically).
    mpc::Buf u_buf =
        mode == PayloadMode::Real && trailing_cols > 0
            ? mpc::Buf(std::span<double>(
                  u_panel.view().data(),
                  static_cast<std::size_t>(b * trailing_cols)))
            : mpc::Buf::phantom(
                  static_cast<std::size_t>(b * trailing_cols));
    if (trailing_cols > 0) {
      if (pg.my_row() == owner_row) {
        const double flops = static_cast<double>(trailing_cols) *
                             static_cast<double>(b) * static_cast<double>(b);
        {
          trace::PhaseTimer timer(stats.comp_time, engine);
          trace::ComputeSpanGuard span(args.tracer, engine, flops);
          co_await machine.compute(self, flops);
        }
        if (mode == PayloadMode::Real) {
          la::MatrixView a_panel =
              args.local_a->block(local_r0, col_start, b, trailing_cols);
          la::trsm_left_lower_unit(diag.view(), a_panel);
          // Pack the strided panel into contiguous storage for the wire.
          la::MatrixView packed(u_panel.view().data(), b, trailing_cols,
                                trailing_cols);
          packed.copy_from(a_panel);
        }
      }
      {
        trace::PhaseTimer timer(stats.comm_time, engine);
        co_await hier_bcast(col_chain, owner_row, u_buf, args.bcast_algo);
      }
    }

    // 4. Trailing update.
    if (trailing_rows > 0 && trailing_cols > 0) {
      const double flops = la::gemm_flops(trailing_rows, trailing_cols, b);
      {
        trace::PhaseTimer timer(stats.comp_time, engine);
        trace::ComputeSpanGuard span(args.tracer, engine, flops);
        co_await machine.compute(self, flops);
      }
      if (mode == PayloadMode::Real) {
        la::ConstMatrixView l_view(l_panel.view().data(), trailing_rows, b,
                                   b);
        la::ConstMatrixView u_view(u_panel.view().data(), b, trailing_cols,
                                   trailing_cols);
        la::gemm_subtract(
            l_view, u_view,
            args.local_a->block(row_start, col_start, trailing_rows,
                                trailing_cols));
      }
      stats.flops += static_cast<std::uint64_t>(flops);
    }
  }
}

}  // namespace

// A plain function, not a coroutine: co_await-ing the plan from the loop's
// coroutine would keep an LuArgs temporary in every rank's frame.
desim::Task<void> lu_rank(LuArgs args) {
  // Overlapped execution is a task-plan schedule (core/task_plan.hpp).
  if (args.lookahead > 0) return lu_task_plan(std::move(args));
  return lu_loop(std::move(args));
}

}  // namespace hs::core
