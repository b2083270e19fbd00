#include "core/cyclic.hpp"

#include "core/panel.hpp"
#include "grid/distribution.hpp"
#include "grid/hier_grid.hpp"
#include "la/gemm.hpp"
#include "mpc/collectives.hpp"

namespace hs::core {

desim::Task<void> summa_cyclic_rank(SummaArgs args) {
  const ProblemSpec& prob = args.problem;
  const index_t b = prob.block;
  const grid::ProcessGrid pg(args.comm, args.shape);
  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();

  const grid::BlockCyclicDistribution dist_a(prob.m, prob.k, b, b,
                                             pg.rows(), pg.cols());
  const grid::BlockCyclicDistribution dist_c(prob.m, prob.n, b, b,
                                             pg.rows(), pg.cols());
  const index_t local_m = dist_a.local_rows(pg.my_row());
  const index_t local_n = dist_c.local_cols(pg.my_col());
  const PayloadMode mode =
      args.local == nullptr ? PayloadMode::Phantom : PayloadMode::Real;

  trace::RankStats scratch_stats;
  trace::RankStats& stats = args.stats ? *args.stats : scratch_stats;
  const index_t steps = prob.k / b;

  // Copy this step's pivot slabs out of the cyclic local storage.
  auto load_a = [&](index_t q, PanelBuffer& panel) {
    const int root = static_cast<int>(q % pg.cols());
    if (mode == PayloadMode::Real && pg.my_col() == root) {
      const index_t local_col0 =
          (q / static_cast<index_t>(pg.cols())) * b;
      panel.view().copy_from(
          args.local->a.block(0, local_col0, local_m, b));
    }
    return root;
  };
  auto load_b = [&](index_t q, PanelBuffer& panel) {
    const int root = static_cast<int>(q % pg.rows());
    if (mode == PayloadMode::Real && pg.my_row() == root) {
      const index_t local_row0 =
          (q / static_cast<index_t>(pg.rows())) * b;
      panel.view().copy_from(
          args.local->b.block(local_row0, 0, b, local_n));
    }
    return root;
  };

  if (args.lookahead >= 1) {
    PanelBuffer a_panels[2] = {PanelBuffer(local_m, b, mode),
                               PanelBuffer(local_m, b, mode)};
    PanelBuffer b_panels[2] = {PanelBuffer(b, local_n, mode),
                               PanelBuffer(b, local_n, mode)};
    desim::Async a_async[2];
    desim::Async b_async[2];

    auto fork_step = [&](index_t q, int slot) {
      const int a_root = load_a(q, a_panels[slot]);
      a_async[slot] = desim::Async::start(
          engine, mpc::bcast(pg.row_comm(), a_root, a_panels[slot].buf(),
                             args.bcast_algo));
      const int b_root = load_b(q, b_panels[slot]);
      b_async[slot] = desim::Async::start(
          engine, mpc::bcast(pg.col_comm(), b_root, b_panels[slot].buf(),
                             args.bcast_algo));
    };

    fork_step(0, 0);
    for (index_t q = 0; q < steps; ++q) {
      const int slot = static_cast<int>(q % 2);
      {
        trace::PhaseTimer timer(stats.comm_time, engine);
        co_await a_async[slot].wait();
        co_await b_async[slot].wait();
      }
      if (q + 1 < steps) fork_step(q + 1, slot ^ 1);
      const double flops = la::gemm_flops(local_m, local_n, b);
      {
        trace::PhaseTimer timer(stats.comp_time, engine);
        co_await machine.compute(self, flops);
      }
      if (mode == PayloadMode::Real)
        la::gemm(a_panels[slot].view(), b_panels[slot].view(),
                 args.local->c.view());
      stats.flops += static_cast<std::uint64_t>(flops);
    }
    co_return;
  }

  PanelBuffer a_panel(local_m, b, mode);
  PanelBuffer b_panel(b, local_n, mode);
  for (index_t q = 0; q < steps; ++q) {
    const int a_root = load_a(q, a_panel);
    {
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await mpc::bcast(pg.row_comm(), a_root, a_panel.buf(),
                          args.bcast_algo);
    }
    const int b_root = load_b(q, b_panel);
    {
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await mpc::bcast(pg.col_comm(), b_root, b_panel.buf(),
                          args.bcast_algo);
    }
    const double flops = la::gemm_flops(local_m, local_n, b);
    {
      trace::PhaseTimer timer(stats.comp_time, engine);
      co_await machine.compute(self, flops);
    }
    if (mode == PayloadMode::Real)
      la::gemm(a_panel.view(), b_panel.view(), args.local->c.view());
    stats.flops += static_cast<std::uint64_t>(flops);
  }
}

desim::Task<void> hsumma_cyclic_rank(HsummaArgs args) {
  const ProblemSpec& prob = args.problem;
  const index_t b = prob.block;
  const index_t outer = prob.effective_outer_block();
  const grid::HierGrid hg(args.comm, args.shape, args.groups);
  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();

  const int s = args.shape.rows;
  const int t = args.shape.cols;
  const grid::BlockCyclicDistribution dist_a(prob.m, prob.k, outer, outer, s,
                                             t);
  const grid::BlockCyclicDistribution dist_c(prob.m, prob.n, outer, outer, s,
                                             t);
  const index_t local_m = dist_a.local_rows(hg.flat().my_row());
  const index_t local_n = dist_c.local_cols(hg.flat().my_col());
  const grid::GridShape local_shape = hg.local_shape();
  const PayloadMode mode =
      args.local == nullptr ? PayloadMode::Phantom : PayloadMode::Real;

  trace::RankStats scratch_stats;
  trace::RankStats& stats = args.stats ? *args.stats : scratch_stats;

  PanelBuffer a_outer(local_m, outer, mode);
  PanelBuffer b_outer(outer, local_n, mode);
  PanelBuffer a_inners[2] = {PanelBuffer(local_m, b, mode),
                             PanelBuffer(local_m, b, mode)};
  PanelBuffer b_inners[2] = {PanelBuffer(b, local_n, mode),
                             PanelBuffer(b, local_n, mode)};
  desim::Async a_async[2];
  desim::Async b_async[2];

  const index_t outer_steps = prob.k / outer;
  const index_t inner_steps = outer / b;

  for (index_t big_step = 0; big_step < outer_steps; ++big_step) {
    // The owner of this outer panel rotates around the grid.
    const int a_col = static_cast<int>(big_step % t);
    const int a_group_col = a_col / local_shape.cols;
    const int a_local_col = a_col % local_shape.cols;
    if (hg.local_col() == a_local_col) {
      if (mode == PayloadMode::Real && hg.flat().my_col() == a_col) {
        const index_t local_col0 =
            (big_step / static_cast<index_t>(t)) * outer;
        a_outer.view().copy_from(
            args.local->a.block(0, local_col0, local_m, outer));
      }
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await mpc::bcast(hg.group_row_comm(), a_group_col, a_outer.buf(),
                          args.bcast_algo);
    }

    const int b_row = static_cast<int>(big_step % s);
    const int b_group_row = b_row / local_shape.rows;
    const int b_local_row = b_row % local_shape.rows;
    if (hg.local_row() == b_local_row) {
      if (mode == PayloadMode::Real && hg.flat().my_row() == b_row) {
        const index_t local_row0 =
            (big_step / static_cast<index_t>(s)) * outer;
        b_outer.view().copy_from(
            args.local->b.block(local_row0, 0, outer, local_n));
      }
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await mpc::bcast(hg.group_col_comm(), b_group_row, b_outer.buf(),
                          args.bcast_algo);
    }

    auto fork_inner = [&](index_t w, int slot) {
      const index_t offset = w * b;
      if (mode == PayloadMode::Real && hg.local_col() == a_local_col)
        a_inners[slot].view().copy_from(
            a_outer.view().block(0, offset, local_m, b));
      a_async[slot] = desim::Async::start(
          engine, mpc::bcast(hg.row_comm(), a_local_col,
                             a_inners[slot].buf(), args.bcast_algo));
      if (mode == PayloadMode::Real && hg.local_row() == b_local_row)
        b_inners[slot].view().copy_from(
            b_outer.view().block(offset, 0, b, local_n));
      b_async[slot] = desim::Async::start(
          engine, mpc::bcast(hg.col_comm(), b_local_row,
                             b_inners[slot].buf(), args.bcast_algo));
    };

    auto update = [&](int slot) -> desim::Task<void> {
      const double flops = la::gemm_flops(local_m, local_n, b);
      {
        trace::PhaseTimer timer(stats.comp_time, engine);
        co_await machine.compute(self, flops);
      }
      if (mode == PayloadMode::Real)
        la::gemm(a_inners[slot].view(), b_inners[slot].view(),
                 args.local->c.view());
      stats.flops += static_cast<std::uint64_t>(flops);
    };

    if (args.lookahead >= 1) {
      fork_inner(0, 0);
      for (index_t inner = 0; inner < inner_steps; ++inner) {
        const int slot = static_cast<int>(inner % 2);
        {
          trace::PhaseTimer timer(stats.comm_time, engine);
          co_await a_async[slot].wait();
          co_await b_async[slot].wait();
        }
        if (inner + 1 < inner_steps) fork_inner(inner + 1, slot ^ 1);
        co_await update(slot);
      }
    } else {
      // Blocking inner loop: await each broadcast before the next (matches
      // hsumma_rank so layout comparisons isolate the distribution).
      for (index_t inner = 0; inner < inner_steps; ++inner) {
        const index_t offset = inner * b;
        if (mode == PayloadMode::Real && hg.local_col() == a_local_col)
          a_inners[0].view().copy_from(
              a_outer.view().block(0, offset, local_m, b));
        {
          trace::PhaseTimer timer(stats.comm_time, engine);
          co_await mpc::bcast(hg.row_comm(), a_local_col, a_inners[0].buf(),
                              args.bcast_algo);
        }
        if (mode == PayloadMode::Real && hg.local_row() == b_local_row)
          b_inners[0].view().copy_from(
              b_outer.view().block(offset, 0, b, local_n));
        {
          trace::PhaseTimer timer(stats.comm_time, engine);
          co_await mpc::bcast(hg.col_comm(), b_local_row, b_inners[0].buf(),
                              args.bcast_algo);
        }
        co_await update(0);
      }
    }
  }
}

}  // namespace hs::core
