// The two collectives the kernels issue, implemented on top of
// point-to-point transfers: broadcast (every kernel but Cannon, which only
// shifts) and reduce (SUMMA-2.5D's final sum across layers).
//
// Broadcast offers the algorithm menu the paper discusses (Section II-B):
// flat tree, binomial tree, van de Geijn scatter + ring allgather,
// scatter + recursive-doubling allgather, pipelined chain, and an
// MPICH-style automatic dispatch on (message size, rank count). On a flat
// Hockney network with power-of-two rank counts, each implementation's
// simulated completion time matches the closed forms in net/bcast_cost.hpp
// (asserted by tests), which is what lets CollectiveMode::ClosedForm charge
// the formula instead of routing O(p) messages at BlueGene/P scale.
// Reduce is a binomial tree, priced by net::reduce_time in closed form.
//
// Both collectives follow MPI ordering rules: every member of the
// communicator must call the same collectives in the same order. Payloads
// may be phantom (see buffer.hpp).
#pragma once

#include <optional>

#include "desim/task.hpp"
#include "mpc/comm.hpp"
#include "net/bcast_cost.hpp"

namespace hs::mpc {

/// Broadcast `buf` (root's contents to everyone). `algo` defaults to the
/// machine's configured broadcast algorithm.
desim::Task<void> bcast(Comm comm, int root, Buf buf,
                        std::optional<net::BcastAlgo> algo = std::nullopt);

/// Element-wise sum reduction to `root`. `recv` is significant only at the
/// root and may alias `send` there.
desim::Task<void> reduce(Comm comm, int root, ConstBuf send, Buf recv);

}  // namespace hs::mpc
