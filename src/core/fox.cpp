#include "core/fox.hpp"

#include <vector>

#include "grid/process_grid.hpp"
#include "la/gemm.hpp"
#include "mpc/collectives.hpp"

namespace hs::core {

desim::Task<void> fox_rank(FoxArgs args) {
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

  std::vector<double> a_panel, b_work, scratch;
  if (real) {
    a_panel.resize(count);
    b_work.assign(args.local->b.data(), args.local->b.data() + count);
    scratch.resize(count);
  }

  for (int step = 0; step < q; ++step) {
    const int root = (i + step) % q;  // column holding this step's A block
    if (real && j == root)
      std::copy(args.local->a.data(), args.local->a.data() + count,
                a_panel.begin());
    {
      mpc::Buf panel = real ? mpc::Buf(std::span<double>(a_panel))
                            : mpc::Buf::phantom(count);
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await mpc::bcast(pg.row_comm(), root, panel, args.bcast_algo);
    }

    const double flops = la::gemm_flops(nb, nb, nb);
    {
      trace::PhaseTimer timer(stats.comp_time, engine);
      co_await machine.compute(self, flops);
    }
    if (real) {
      la::ConstMatrixView a_view(a_panel.data(), nb, nb, nb);
      la::ConstMatrixView b_view(b_work.data(), nb, nb, nb);
      la::gemm(a_view, b_view, args.local->c.view());
    }
    stats.flops += static_cast<std::uint64_t>(flops);

    if (step + 1 == q) break;
    // Rotate B up by one grid row.
    {
      mpc::ConstBuf send = real ? mpc::ConstBuf(std::span<const double>(b_work))
                                : mpc::ConstBuf::phantom(count);
      mpc::Buf recv = real ? mpc::Buf(std::span<double>(scratch))
                           : mpc::Buf::phantom(count);
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await pg.col_comm().sendrecv((i - 1 + q) % q, send, (i + 1) % q,
                                      recv, /*send_tag=*/5, /*recv_tag=*/5);
      if (real) b_work.swap(scratch);
    }
  }
}

}  // namespace hs::core
