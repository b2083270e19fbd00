// SUMMA — Scalable Universal Matrix Multiplication Algorithm
// (van de Geijn & Watts, 1997), the paper's baseline and the state of the
// art it redesigns — and, with broadcast factor chains, multi-level HSUMMA.
//
// C = A*B over an s x t grid with block-checkerboard distribution: k/b
// steps, each broadcasting the pivot column panel of A along grid rows and
// the pivot row panel of B along grid columns, followed by a local rank-b
// update. Each broadcast is a hierarchical broadcast over a factor chain
// (core/hier_bcast.hpp): the empty chain is SUMMA itself, and the paper's
// HSUMMA with G in {1, p} is the same empty chain.
//
// Block-cyclic SUMMA (`summa-cyclic`) is this kernel over the block-cyclic
// layout the paper names as its main future work ("by using block-cyclic
// distribution the communication can be better overlapped and
// parallelized"). With ScaLAPACK-style b x b blocks dealt round-robin, the
// pivot panel's owner rotates every step: step q's A panel lives on grid
// column q mod t and its B panel on grid row q mod s. Consecutive steps
// therefore broadcast from different roots, so look-ahead's forked
// broadcasts contend less on any one root's send port than in the
// block-checkerboard layout, where one column roots k/(t*b) consecutive
// steps. Pivot alignment is automatic: only k must be a multiple of b, and
// m and n may be anything numroc can deal.
#pragma once

#include <utility>
#include <vector>

#include "core/hier_bcast.hpp"
#include "core/spec.hpp"
#include "desim/task.hpp"
#include "mpc/comm.hpp"
#include "trace/phase.hpp"
#include "trace/recorder.hpp"

namespace hs::core {

struct SummaArgs {
  mpc::Comm comm;              // the grid communicator (size == s*t)
  grid::GridShape shape;       // s x t
  ProblemSpec problem;
  LocalBlocks* local = nullptr;        // nullptr in Phantom mode
  trace::RankStats* stats = nullptr;   // optional
  std::optional<net::BcastAlgo> bcast_algo;  // default: machine config
  /// Communication/computation look-ahead depth (the paper's future work).
  /// 0 = classic blocking loop; >= 1 runs the task-plan scheduler
  /// (core/task_plan.hpp) with D+1 panel slots — D=1 is the double-buffered
  /// pipeline, deeper D adds nothing for flat SUMMA (the broadcast channel
  /// serializes) but is accepted. comm_time then counts only the *exposed*
  /// (non-hidden) communication.
  int lookahead = 0;
  /// Optional structured trace sink (detached by default). Emits one step
  /// marker per pivot step and wraps compute charges in spans; collective
  /// spans come from the mpc layer. With lookahead >= 1 the step stamped on
  /// a forked broadcast is the step current at fork time (best-effort).
  trace::RankTracer tracer;
  /// Broadcast factor chains along grid rows (A, over t) and grid columns
  /// (B, over s); empty means flat SUMMA. problem.outer_block is ignored:
  /// every chain level moves panels of b.
  std::vector<int> row_levels = {};
  std::vector<int> col_levels = {};
  /// Block-cyclic layout with distribution block b (core/panel.hpp's
  /// panel_layout) instead of the block-checkerboard one.
  bool cyclic = false;
};

/// The per-rank SUMMA program over the args' factor chains, whose
/// communicators it builds once, at start. Preconditions (checked by the
/// registry before any rank spawns, not here): s | m, t | n, (t*b) | k and
/// (s*b) | k so every pivot panel lies within one grid row/column (the
/// paper's divisibility assumptions), and every factor divides the group
/// size remaining at its level; for the block-cyclic layout only b | k.
///
/// With row_levels = {J} and col_levels = {I} this issues the broadcasts
/// of HSUMMA(I x J groups, b = B) in a different order: each step runs all
/// of A's stages, then all of B's, where scalar HSUMMA (core/hsumma.hpp)
/// runs both outer broadcasts before the inner ones. At D = 0 messages and
/// wire bytes match HSUMMA exactly, but virtual times only up to rounding:
/// max comm, max comp and the per-level split can differ in the last
/// bits, and on some grids the total does too (tests pin the grids where
/// the total is bit-identical). At D >= 1 the two orders overlap
/// differently and the totals differ outright. A non-empty chain fills the
/// per-level communication split (trace::RankStats::level_comm_time, one
/// slot per chain level plus the trailing remainder phase).
desim::Task<void> summa_rank(SummaArgs args);

/// The calling rank's broadcast chains, built once per kernel run: along
/// its grid row (A's panels, args.row_levels) and along its grid column
/// (B's panels, args.col_levels).
std::pair<BcastChain, BcastChain> summa_chains(const SummaArgs& args);

/// Divisibility checks shared with HSUMMA; throws PreconditionError with a
/// precise message on violation.
void check_summa_divisibility(grid::GridShape shape, const ProblemSpec& p);

}  // namespace hs::core
