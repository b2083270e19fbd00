// Fox's algorithm (BMR, 1987) — the second classical square-grid baseline.
//
// Step l of q: the diagonal-offset block A(i, (i+l) mod q) is broadcast
// along grid row i, multiplied into C against the resident B block, and B
// is rotated up by one. Same square-grid restriction as Cannon; broadcast
// along rows instead of A-rotation.
#pragma once

#include "core/spec.hpp"
#include "desim/task.hpp"
#include "mpc/comm.hpp"
#include "trace/phase.hpp"

namespace hs::core {

struct FoxArgs {
  mpc::Comm comm;
  grid::GridShape shape;  // must be square
  ProblemSpec problem;    // m == k == n required
  LocalBlocks* local = nullptr;
  trace::RankStats* stats = nullptr;
  std::optional<net::BcastAlgo> bcast_algo;
};

/// The per-rank program. Preconditions (checked by the registry before any
/// rank spawns, not here): a square grid, a square problem, and q | n.
desim::Task<void> fox_rank(FoxArgs args);

}  // namespace hs::core
