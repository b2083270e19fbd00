// HSUMMA — Hierarchical SUMMA, the paper's contribution.
//
// The s x t grid is partitioned into an I x J arrangement of groups, each
// an (s/I) x (t/J) sub-grid. Every SUMMA broadcast is split in two:
//
//   outer phase  — the processors owning the pivot panel (one per group,
//                  at the same local position) exchange the *outer block*
//                  (size B) across groups, horizontally for A over
//                  group_row_comm and vertically for B over group_col_comm;
//   inner phase  — within each group, the panel is broadcast in *inner
//                  blocks* (size b <= B) over the group's row/col
//                  communicators, interleaved with the local updates.
//
// The number of steps (k/B outer times B/b inner) and the total data volume
// equal SUMMA's; only the broadcast participant counts change — which is
// precisely where the Section IV analysis gets its G = sqrt(p) optimum.
// G = 1 and G = p degenerate to SUMMA exactly.
//
// Block-cyclic HSUMMA (`hsumma-cyclic`) is this kernel over the block-cyclic
// layout (see core/summa.hpp) with the outer block B as the distribution
// block: each outer panel still has a single owner column (and row), which
// rotates every big step, so the two-phase hierarchy is preserved.
#pragma once

#include "core/spec.hpp"
#include "desim/task.hpp"
#include "grid/hier_grid.hpp"
#include "mpc/comm.hpp"
#include "trace/phase.hpp"
#include "trace/recorder.hpp"

namespace hs::core {

struct HsummaArgs {
  mpc::Comm comm;
  grid::GridShape shape;        // s x t
  grid::GridShape groups;       // I x J (I | s, J | t)
  ProblemSpec problem;          // block = b, outer_block = B (0 -> b)
  LocalBlocks* local = nullptr;
  trace::RankStats* stats = nullptr;
  std::optional<net::BcastAlgo> bcast_algo;
  /// Look-ahead depth (see SummaArgs::lookahead). D=1 reproduces the old
  /// double-buffered *intra-group* pipeline (outer-phase broadcasts stay
  /// blocking); D>=2 additionally prefetches up to D outer panels across
  /// big-step boundaries — the win the hand-rolled pipeline could not
  /// express.
  int lookahead = 0;
  /// Optional structured trace sink (detached by default). Marks every
  /// outer step at chain level 0 and every inner step (numbered
  /// big_step*inner_steps + inner) at level 1, so collective and compute
  /// spans carry the level the critical-path analyzer splits on.
  trace::RankTracer tracer;
  /// Block-cyclic layout with distribution block B (core/panel.hpp's
  /// panel_layout) instead of the block-checkerboard one.
  bool cyclic = false;
};

/// The per-rank HSUMMA program (the paper's Algorithm 1).
/// Preconditions (checked by the registry before any rank spawns, not
/// here): SUMMA's divisibility for block b, plus b | B, B aligned to single
/// owners ((t*B) | k and (s*B) | k), and groups dividing the grid; for the
/// block-cyclic layout b | B, B | k and groups dividing the grid.
desim::Task<void> hsumma_rank(HsummaArgs args);

/// The block layout's preconditions above; throws PreconditionError with a
/// precise message on violation.
void check_hsumma_divisibility(grid::GridShape shape, grid::GridShape groups,
                               const ProblemSpec& p);

/// The I x J group arrangement divides the s x t grid (both layouts).
void check_group_arrangement(grid::GridShape shape, grid::GridShape groups);

}  // namespace hs::core
