// Communicator handle: an MPI_Comm analogue.
//
// A Comm is a cheap value (machine pointer, context id, own rank) naming an
// ordered group of world ranks. All point-to-point and collective addressing
// is in *communicator ranks*; the context id keeps traffic in different
// communicators from ever matching, exactly like MPI communicator contexts.
//
// Sub-communicators are created with `sub` (explicit membership, computed
// locally — the simulated machine has global knowledge, so no setup traffic
// is charged; MPI communicator construction cost is excluded from the
// paper's timings as well).
#pragma once

#include <vector>

#include "desim/task.hpp"
#include "mpc/machine.hpp"

namespace hs::mpc {

class Comm {
 public:
  Comm() = default;
  Comm(Machine* machine, int ctx, int rank)
      : machine_(machine), ctx_(ctx), rank_(rank) {}

  bool valid() const noexcept { return machine_ != nullptr; }
  Machine& machine() const {
    HS_REQUIRE(machine_ != nullptr);
    return *machine_;
  }
  desim::Engine& engine() const { return machine().engine(); }
  int context() const noexcept { return ctx_; }

  /// This process's rank within the communicator, in [0, size()).
  int rank() const noexcept { return rank_; }
  int size() const { return static_cast<int>(members().size()); }
  const std::vector<int>& members() const {
    return machine().context_members(ctx_);
  }
  int world_rank(int comm_rank) const {
    const auto& m = members();
    HS_REQUIRE(comm_rank >= 0 && comm_rank < static_cast<int>(m.size()));
    return m[static_cast<std::size_t>(comm_rank)];
  }
  int my_world_rank() const { return world_rank(rank_); }

  /// Sub-communicator from an ordered list of *this* communicator's ranks;
  /// the calling rank must be in the list. Every member must call with the
  /// same list.
  Comm sub(const std::vector<int>& comm_ranks) const;

  // --- point-to-point ----------------------------------------------------

  /// Blocking (rendezvous) send/recv to/from a communicator rank:
  /// `co_await comm.send(...)` posts when awaited and resumes when the
  /// transfer has completed (see TransferOp). Tags must be >= 0 (negative
  /// tags are reserved for collectives).
  TransferOp send(int dst, ConstBuf buf, int tag = 0) const {
    HS_REQUIRE(tag >= 0);
    return send_op(dst, buf, tag);
  }
  TransferOp recv(int src, Buf buf, int tag = 0) const {
    HS_REQUIRE(tag >= 0);
    return recv_op(src, buf, tag);
  }

  /// send/recv without the tag check, for the collectives' reserved tags.
  TransferOp send_op(int dst, ConstBuf buf, int tag) const {
    return TransferOp(machine(), my_world_rank(), world_rank(dst), ctx_, tag,
                      buf, Buf{}, /*is_send=*/true);
  }
  TransferOp recv_op(int src, Buf buf, int tag) const {
    return TransferOp(machine(), world_rank(src), my_world_rank(), ctx_, tag,
                      ConstBuf{}, buf, /*is_send=*/false);
  }

  /// Posted-now, awaited-later counterparts (see PostedOp): post on
  /// construction, `co_await op.wait()` to join. For overlapping pairs
  /// (ring exchanges, sendrecv). No tag check, like send_op/recv_op.
  PostedOp send_posted(int dst, ConstBuf buf, int tag) const {
    return PostedOp(machine(), my_world_rank(), world_rank(dst), ctx_, tag,
                    buf, Buf{}, /*is_send=*/true);
  }
  PostedOp recv_posted(int src, Buf buf, int tag) const {
    return PostedOp(machine(), world_rank(src), my_world_rank(), ctx_, tag,
                    ConstBuf{}, buf, /*is_send=*/false);
  }

  /// Simultaneous exchange (both transfers may overlap), as used by the
  /// shift steps of Cannon's algorithm.
  desim::Task<void> sendrecv(int dst, ConstBuf send_buf, int src, Buf recv_buf,
                             int send_tag = 0, int recv_tag = 0) const;

 private:
  Machine* machine_ = nullptr;
  int ctx_ = 0;
  int rank_ = 0;
};

/// Spawn `machine.ranks()` copies of `rank_main` (one per rank, each handed
/// its world communicator) and run the engine to completion. Returns the
/// final virtual time.
template <typename RankMain>
double run_spmd(Machine& machine, RankMain&& rank_main) {
  const auto ranks = static_cast<std::size_t>(machine.ranks());
  // Each rank needs a process record plus, typically, at most a couple of
  // in-flight events; one slot per rank avoids the early heap regrowth.
  machine.engine().reserve(ranks, ranks);
  for (int r = 0; r < machine.ranks(); ++r)
    machine.engine().spawn_indexed(rank_main(machine.world(r)), "", r);
  machine.engine().run();
  return machine.engine().now();
}

}  // namespace hs::mpc
