// Cannon's algorithm (1969) — the classic square-grid baseline the paper's
// introduction starts from.
//
// Requires a q x q grid and a square problem. After skew alignment (A's row
// i rotated left by i, B's column j rotated up by j), each of the q steps
// multiplies the resident blocks and rotates A left / B up by one.
// Communication is neighbor-to-neighbor only — optimal bandwidth, but the
// square-grid restriction is exactly why SUMMA displaced it in libraries.
#pragma once

#include "core/spec.hpp"
#include "desim/task.hpp"
#include "mpc/comm.hpp"
#include "trace/phase.hpp"
#include "trace/recorder.hpp"

namespace hs::core {

struct CannonArgs {
  mpc::Comm comm;
  grid::GridShape shape;  // must be square
  ProblemSpec problem;    // m == k == n required
  LocalBlocks* local = nullptr;
  trace::RankStats* stats = nullptr;
  /// Look-ahead depth (see SummaArgs::lookahead). D >= 1 runs the task
  /// plan with a max(2, D+1)-slot block ring, overlapping the A/B
  /// rotations of step q+1 with the multiply of step q.
  int lookahead = 0;
  /// Optional structured trace sink (step marks + task spans).
  trace::RankTracer tracer;
};

/// The per-rank program. Preconditions (checked by the registry before any
/// rank spawns, not here): a square grid, a square problem, and q | n.
desim::Task<void> cannon_rank(CannonArgs args);

}  // namespace hs::core
