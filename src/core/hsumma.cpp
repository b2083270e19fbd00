#include "core/hsumma.hpp"

#include "core/panel.hpp"
#include "core/summa.hpp"
#include "core/task_plan.hpp"
#include "la/gemm.hpp"
#include "mpc/collectives.hpp"

namespace hs::core {

void check_hsumma_divisibility(grid::GridShape shape, grid::GridShape groups,
                               const ProblemSpec& p) {
  check_summa_divisibility(shape, p);
  const index_t outer = p.effective_outer_block();
  HS_REQUIRE_MSG(outer % p.block == 0,
                 "outer block B=" << outer
                                  << " must be a multiple of inner block b="
                                  << p.block);
  HS_REQUIRE_MSG(p.k % (static_cast<index_t>(shape.cols) * outer) == 0,
                 "k=" << p.k << " must be divisible by t*B = "
                      << shape.cols * outer);
  HS_REQUIRE_MSG(p.k % (static_cast<index_t>(shape.rows) * outer) == 0,
                 "k=" << p.k << " must be divisible by s*B = "
                      << shape.rows * outer);
  check_group_arrangement(shape, groups);
}

void check_group_arrangement(grid::GridShape shape, grid::GridShape groups) {
  HS_REQUIRE_MSG(groups.rows >= 1 && shape.rows % groups.rows == 0 &&
                     groups.cols >= 1 && shape.cols % groups.cols == 0,
                 "group arrangement " << groups.rows << "x" << groups.cols
                                      << " must divide the process grid");
}

namespace {

/// The blocking (D = 0) schedule. The outer broadcasts are charged to level
/// slot 0 and the inner ones to slot 1, as a depth-1 chain charges them.
desim::Task<void> hsumma_loop(HsummaArgs args) {
  const grid::HierGrid hg(args.comm, args.shape, args.groups);
  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();

  const ProblemSpec& prob = args.problem;
  const index_t b = prob.block;
  const index_t outer = prob.effective_outer_block();
  const auto [local_m, local_n, a_kb, b_kb] = panel_layout(
      prob, args.shape, args.comm.rank(), args.cyclic ? outer : 0);
  const grid::GridShape local_shape = hg.local_shape();
  const PayloadMode mode =
      args.local == nullptr ? PayloadMode::Phantom : PayloadMode::Real;

  trace::RankStats scratch_stats;
  trace::RankStats& stats = args.stats ? *args.stats : scratch_stats;
  const auto charge = [&stats](std::size_t level, double elapsed) {
    stats.comm_time += elapsed;
    stats.add_level_comm(level, elapsed);
  };

  PanelBuffer a_outer(local_m, outer, mode);
  PanelBuffer b_outer(outer, local_n, mode);
  PanelBuffer a_inner(local_m, b, mode);
  PanelBuffer b_inner(b, local_n, mode);

  const index_t outer_steps = prob.k / outer;
  const index_t inner_steps = outer / b;

  for (index_t big_step = 0; big_step < outer_steps; ++big_step) {
    args.tracer.begin_step(engine, big_step, trace::Phase::Outer);
    const index_t pivot = big_step * outer;

    // --- outer phase: inter-group broadcasts of the outer blocks -------
    // A's outer pivot panel lives on grid column a_owner.root; within each
    // group that is local column a_local_col of group column a_group_col.
    const PanelOwner a_owner = panel_owner(pivot, a_kb, args.shape.cols);
    const int a_group_col = a_owner.root / local_shape.cols;
    const int a_local_col = a_owner.root % local_shape.cols;
    if (hg.local_col() == a_local_col) {
      if (mode == PayloadMode::Real && hg.flat().my_col() == a_owner.root)
        a_outer.view().copy_from(
            args.local->a.block(0, a_owner.offset, local_m, outer));
      const double start = engine.now();
      co_await mpc::bcast(hg.group_row_comm(), a_group_col, a_outer.buf(),
                          args.bcast_algo);
      charge(0, engine.now() - start);
    }

    const PanelOwner b_owner = panel_owner(pivot, b_kb, args.shape.rows);
    const int b_group_row = b_owner.root / local_shape.rows;
    const int b_local_row = b_owner.root % local_shape.rows;
    if (hg.local_row() == b_local_row) {
      if (mode == PayloadMode::Real && hg.flat().my_row() == b_owner.root)
        b_outer.view().copy_from(
            args.local->b.block(b_owner.offset, 0, outer, local_n));
      const double start = engine.now();
      co_await mpc::bcast(hg.group_col_comm(), b_group_row, b_outer.buf(),
                          args.bcast_algo);
      charge(0, engine.now() - start);
    }

    // --- inner phase: intra-group SUMMA over the outer blocks ----------
    for (index_t inner = 0; inner < inner_steps; ++inner) {
      args.tracer.begin_step(engine, big_step * inner_steps + inner,
                             trace::Phase::Inner);
      const index_t offset = inner * b;

      if (mode == PayloadMode::Real && hg.local_col() == a_local_col)
        a_inner.view().copy_from(
            a_outer.view().block(0, offset, local_m, b));
      const double a_start = engine.now();
      co_await mpc::bcast(hg.row_comm(), a_local_col, a_inner.buf(),
                          args.bcast_algo);
      charge(1, engine.now() - a_start);

      if (mode == PayloadMode::Real && hg.local_row() == b_local_row)
        b_inner.view().copy_from(
            b_outer.view().block(offset, 0, b, local_n));
      const double b_start = engine.now();
      co_await mpc::bcast(hg.col_comm(), b_local_row, b_inner.buf(),
                          args.bcast_algo);
      charge(1, engine.now() - b_start);

      const double flops = la::gemm_flops(local_m, local_n, b);
      {
        trace::PhaseTimer timer(stats.comp_time, engine);
        trace::ComputeSpanGuard span(args.tracer, engine, flops);
        co_await machine.compute(self, flops);
      }
      if (mode == PayloadMode::Real)
        la::gemm(a_inner.view(), b_inner.view(), args.local->c.view());
      stats.flops += static_cast<std::uint64_t>(flops);
    }
  }
}

}  // namespace

// A plain function, not a coroutine: co_await-ing the plan from the loop's
// coroutine would keep an HsummaArgs temporary in every rank's frame.
desim::Task<void> hsumma_rank(HsummaArgs args) {
  // Overlapped execution is a task-plan schedule (core/task_plan.hpp).
  if (args.lookahead > 0) return hsumma_task_plan(std::move(args));
  return hsumma_loop(std::move(args));
}

}  // namespace hs::core
