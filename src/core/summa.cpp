#include "core/summa.hpp"

#include "core/panel.hpp"
#include "core/task_plan.hpp"
#include "grid/process_grid.hpp"
#include "la/gemm.hpp"
#include "mpc/collectives.hpp"

namespace hs::core {

void check_summa_divisibility(grid::GridShape shape, const ProblemSpec& p) {
  const index_t b = p.block;
  HS_REQUIRE_MSG(p.m % shape.rows == 0,
                 "m=" << p.m << " not divisible by grid rows " << shape.rows);
  HS_REQUIRE_MSG(p.n % shape.cols == 0,
                 "n=" << p.n << " not divisible by grid cols " << shape.cols);
  HS_REQUIRE_MSG(p.k % (static_cast<index_t>(shape.cols) * b) == 0,
                 "k=" << p.k << " must be divisible by t*b = "
                      << shape.cols * b
                      << " so A pivot panels align to one grid column");
  HS_REQUIRE_MSG(p.k % (static_cast<index_t>(shape.rows) * b) == 0,
                 "k=" << p.k << " must be divisible by s*b = "
                      << shape.rows * b
                      << " so B pivot panels align to one grid row");
}

std::pair<BcastChain, BcastChain> summa_chains(const SummaArgs& args) {
  const grid::ProcessGrid pg(args.comm, args.shape);
  return {BcastChain(pg.row_comm(), args.row_levels),
          BcastChain(pg.col_comm(), args.col_levels)};
}

namespace {

/// Charges one awaited broadcast stage that took `elapsed`: comm_time
/// always, and for a chain run the stage's level slot.
void charge_stage(trace::RankStats& stats, bool split_levels, int level,
                  double elapsed) {
  stats.comm_time += elapsed;
  if (split_levels)
    stats.add_level_comm(static_cast<std::size_t>(level), elapsed);
}

/// The blocking (D = 0) schedule.
desim::Task<void> summa_loop(SummaArgs args) {
  const auto [a_chain, b_chain] = summa_chains(args);
  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();

  const ProblemSpec& prob = args.problem;
  const index_t b = prob.block;
  const auto [local_m, local_n, a_kb, b_kb] = panel_layout(
      prob, args.shape, args.comm.rank(), args.cyclic ? b : 0);
  const PayloadMode mode =
      args.local == nullptr ? PayloadMode::Phantom : PayloadMode::Real;
  const bool split_levels =
      !args.row_levels.empty() || !args.col_levels.empty();

  trace::RankStats scratch_stats;
  trace::RankStats& stats = args.stats ? *args.stats : scratch_stats;

  const index_t steps = prob.k / b;

  PanelBuffer a_panel(local_m, b, mode);
  PanelBuffer b_panel(b, local_n, mode);

  // Every stage is awaited right here, not through a wrapper coroutine,
  // with the rank's trace level stamped for the span the mpc layer records.
  for (index_t q = 0; q < steps; ++q) {
    args.tracer.begin_step(engine, q, trace::Phase::Flat);
    const index_t pivot = q * b;  // global position along the k dimension

    // Horizontal broadcast of A's pivot column panel along my grid row.
    const PanelOwner a_owner = panel_owner(pivot, a_kb, args.shape.cols);
    if (mode == PayloadMode::Real && a_chain.rank() == a_owner.root)
      a_panel.view().copy_from(
          args.local->a.block(0, a_owner.offset, local_m, b));
    for (BcastChain::Stage stage = a_chain.stages(a_owner.root); stage;
         ++stage) {
      const double start = engine.now();
      if (split_levels) args.tracer.set_level(stage.level());
      co_await mpc::bcast(stage.comm(), stage.root(), a_panel.buf(),
                          args.bcast_algo);
      if (split_levels) args.tracer.set_level(-1);
      charge_stage(stats, split_levels, stage.level(), engine.now() - start);
    }

    // Vertical broadcast of B's pivot row panel along my grid column.
    const PanelOwner b_owner = panel_owner(pivot, b_kb, args.shape.rows);
    if (mode == PayloadMode::Real && b_chain.rank() == b_owner.root)
      b_panel.view().copy_from(
          args.local->b.block(b_owner.offset, 0, b, local_n));
    for (BcastChain::Stage stage = b_chain.stages(b_owner.root); stage;
         ++stage) {
      const double start = engine.now();
      if (split_levels) args.tracer.set_level(stage.level());
      co_await mpc::bcast(stage.comm(), stage.root(), b_panel.buf(),
                          args.bcast_algo);
      if (split_levels) args.tracer.set_level(-1);
      charge_stage(stats, split_levels, stage.level(), engine.now() - start);
    }

    // Local rank-b update: C += A_panel * B_panel.
    const double flops = la::gemm_flops(local_m, local_n, b);
    {
      trace::PhaseTimer timer(stats.comp_time, engine);
      trace::ComputeSpanGuard span(args.tracer, engine, flops);
      co_await machine.compute(self, flops);
    }
    if (mode == PayloadMode::Real)
      la::gemm(a_panel.view(), b_panel.view(), args.local->c.view());
    stats.flops += static_cast<std::uint64_t>(flops);
  }
}

}  // namespace

// A plain function, not a coroutine: co_await-ing the plan from the loop's
// coroutine would keep a SummaArgs temporary in every rank's frame.
desim::Task<void> summa_rank(SummaArgs args) {
  // Overlapped execution is a task-plan schedule (core/task_plan.hpp).
  if (args.lookahead > 0) return summa_task_plan(std::move(args));
  return summa_loop(std::move(args));
}

}  // namespace hs::core
