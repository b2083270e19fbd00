#include "core/summa25d.hpp"

#include <vector>

#include "core/panel.hpp"
#include "grid/process_grid.hpp"
#include "la/gemm.hpp"
#include "mpc/collectives.hpp"

namespace hs::core {

desim::Task<void> summa25d_rank(Summa25DArgs args) {
  const ProblemSpec& prob = args.problem;
  const int c = args.layers;
  HS_REQUIRE(c >= 1);
  HS_REQUIRE_MSG(args.comm.size() == args.shape.size() * c,
                 "communicator size must be q*q*c");
  const index_t steps_total = prob.k / prob.block;

  mpc::Machine& machine = args.comm.machine();
  const int self = args.comm.my_world_rank();
  desim::Engine& engine = machine.engine();
  const int per_layer = args.shape.size();
  const int layer = args.comm.rank() / per_layer;
  const int within = args.comm.rank() % per_layer;

  trace::RankStats scratch_stats;
  trace::RankStats& stats = args.stats ? *args.stats : scratch_stats;

  // Layer communicator (my q x q grid) and depth communicator (same grid
  // position across layers).
  std::vector<int> members;
  members.reserve(static_cast<std::size_t>(per_layer));
  for (int r = 0; r < per_layer; ++r) members.push_back(layer * per_layer + r);
  mpc::Comm layer_comm = args.comm.sub(members);
  members.clear();
  members.reserve(static_cast<std::size_t>(c));
  for (int l = 0; l < c; ++l) members.push_back(l * per_layer + within);
  mpc::Comm depth_comm = args.comm.sub(members);

  const grid::ProcessGrid pg(layer_comm, args.shape);
  const index_t local_m = prob.m / pg.rows();
  const index_t local_n = prob.n / pg.cols();
  const index_t local_k_a = prob.k / pg.cols();
  const index_t local_k_b = prob.k / pg.rows();
  const index_t b = prob.block;
  const bool real = args.local != nullptr;

  // Replicate A and B blocks from layer 0 to all layers.
  {
    mpc::Buf a_buf = real ? mpc::Buf(std::span<double>(
                                args.local->a.data(),
                                static_cast<std::size_t>(local_m * local_k_a)))
                          : mpc::Buf::phantom(
                                static_cast<std::size_t>(local_m * local_k_a));
    mpc::Buf b_buf = real ? mpc::Buf(std::span<double>(
                                args.local->b.data(),
                                static_cast<std::size_t>(local_k_b * local_n)))
                          : mpc::Buf::phantom(
                                static_cast<std::size_t>(local_k_b * local_n));
    trace::PhaseTimer timer(stats.comm_time, engine);
    co_await mpc::bcast(depth_comm, 0, a_buf, args.bcast_algo);
    co_await mpc::bcast(depth_comm, 0, b_buf, args.bcast_algo);
  }

  // My layer's contiguous share of the pivot steps.
  const index_t steps_per_layer = steps_total / c;
  const index_t first_step = static_cast<index_t>(layer) * steps_per_layer;

  PanelBuffer a_panel(local_m, b,
                      real ? PayloadMode::Real : PayloadMode::Phantom);
  PanelBuffer b_panel(b, local_n,
                      real ? PayloadMode::Real : PayloadMode::Phantom);

  for (index_t q = first_step; q < first_step + steps_per_layer; ++q) {
    const index_t pivot = q * b;
    const int a_root = static_cast<int>(pivot / local_k_a);
    if (real && pg.my_col() == a_root) {
      const index_t col0 = pivot - static_cast<index_t>(a_root) * local_k_a;
      a_panel.view().copy_from(args.local->a.block(0, col0, local_m, b));
    }
    {
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await mpc::bcast(pg.row_comm(), a_root, a_panel.buf(),
                          args.bcast_algo);
    }
    const int b_root = static_cast<int>(pivot / local_k_b);
    if (real && pg.my_row() == b_root) {
      const index_t row0 = pivot - static_cast<index_t>(b_root) * local_k_b;
      b_panel.view().copy_from(args.local->b.block(row0, 0, b, local_n));
    }
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
    if (real)
      la::gemm(a_panel.view(), b_panel.view(), args.local->c.view());
    stats.flops += static_cast<std::uint64_t>(flops);
  }

  // Sum partial C contributions to layer 0.
  if (c > 1) {
    const auto c_count = static_cast<std::size_t>(local_m * local_n);
    std::vector<double> result;
    mpc::ConstBuf send = real ? mpc::ConstBuf(std::span<const double>(
                                    args.local->c.data(), c_count))
                              : mpc::ConstBuf::phantom(c_count);
    mpc::Buf recv;
    if (real && layer == 0) {
      result.resize(c_count);
      recv = mpc::Buf(std::span<double>(result));
    } else {
      recv = real ? mpc::Buf{} : mpc::Buf::phantom(c_count);
    }
    {
      trace::PhaseTimer timer(stats.comm_time, engine);
      co_await mpc::reduce(depth_comm, 0, send, recv);
    }
    if (real && layer == 0)
      std::copy(result.begin(), result.end(), args.local->c.data());
  }
}

}  // namespace hs::core
