#include "core/cannon.hpp"

#include <utility>
#include <vector>

#include "core/task_plan.hpp"
#include "grid/process_grid.hpp"
#include "la/gemm.hpp"
#include "mpc/collectives.hpp"

namespace hs::core {

namespace {

// Exchange the resident block with a rotation partner: send mine to `dst`,
// receive my replacement from `src` (ranks within `comm`), then swap the
// scratch into place.
desim::Task<void> rotate(mpc::Comm comm, int dst, int src,
                         std::vector<double>& mine,
                         std::vector<double>& scratch, std::size_t count,
                         bool real, int tag) {
  mpc::ConstBuf send = real ? mpc::ConstBuf(std::span<const double>(mine))
                            : mpc::ConstBuf::phantom(count);
  mpc::Buf recv = real ? mpc::Buf(std::span<double>(scratch))
                       : mpc::Buf::phantom(count);
  co_await comm.sendrecv(dst, send, src, recv, tag, tag);
  if (real) mine.swap(scratch);
}

/// The blocking (D = 0) schedule.
desim::Task<void> cannon_loop(CannonArgs args) {
  const ProblemSpec& prob = args.problem;
  const int q = args.shape.rows;
  const grid::ProcessGrid pg(args.comm, args.shape);
  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();
  const index_t nb = prob.n / q;
  const auto count = static_cast<std::size_t>(nb * nb);
  const bool real = args.local != nullptr;

  trace::RankStats scratch_stats;
  trace::RankStats& stats = args.stats ? *args.stats : scratch_stats;

  const int i = pg.my_row();
  const int j = pg.my_col();

  // Working copies (A and B rotate; C accumulates in place).
  std::vector<double> a_work, b_work, scratch;
  if (real) {
    a_work.assign(args.local->a.data(), args.local->a.data() + count);
    b_work.assign(args.local->b.data(), args.local->b.data() + count);
    scratch.resize(count);
  }

  // Skew alignment: A(i,j) -> (i, j-i), B(i,j) -> (i-j, j), as single
  // distance-i/j rotations.
  if (i > 0) {
    const int left = (j - i + q) % q;
    const int right = (j + i) % q;
    trace::PhaseTimer timer(stats.comm_time, engine);
    co_await rotate(pg.row_comm(), left, right, a_work, scratch, count, real,
                    /*tag=*/1);
  }
  if (j > 0) {
    const int up = (i - j + q) % q;
    const int down = (i + j) % q;
    trace::PhaseTimer timer(stats.comm_time, engine);
    co_await rotate(pg.col_comm(), up, down, b_work, scratch, count, real,
                    /*tag=*/2);
  }

  for (int step = 0; step < q; ++step) {
    args.tracer.begin_step(engine, step, -1);
    const double flops = la::gemm_flops(nb, nb, nb);
    {
      trace::PhaseTimer timer(stats.comp_time, engine);
      trace::ComputeSpanGuard span(args.tracer, engine, flops);
      co_await machine.compute(self, flops);
    }
    if (real) {
      la::ConstMatrixView a_view(a_work.data(), nb, nb, nb);
      la::ConstMatrixView b_view(b_work.data(), nb, nb, nb);
      la::gemm(a_view, b_view, args.local->c.view());
    }
    stats.flops += static_cast<std::uint64_t>(flops);

    if (step + 1 == q) break;  // last multiply needs no further rotation
    {
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await rotate(pg.row_comm(), (j - 1 + q) % q, (j + 1) % q, a_work,
                      scratch, count, real, /*tag=*/3);
      co_await rotate(pg.col_comm(), (i - 1 + q) % q, (i + 1) % q, b_work,
                      scratch, count, real, /*tag=*/4);
    }
  }
}

}  // namespace

// A plain function, not a coroutine: co_await-ing the plan from the loop's
// coroutine would keep a CannonArgs temporary in every rank's frame.
desim::Task<void> cannon_rank(CannonArgs args) {
  // Overlapped execution is a task-plan schedule (core/task_plan.hpp).
  if (args.lookahead > 0) return cannon_task_plan(std::move(args));
  return cannon_loop(std::move(args));
}

}  // namespace hs::core
