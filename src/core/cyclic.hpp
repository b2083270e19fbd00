// Block-cyclic SUMMA and HSUMMA — the paper's primary declared future work
// ("we believe that by using block-cyclic distribution the communication
// can be better overlapped and parallelized").
//
// With the ScaLAPACK-style block-cyclic layout (distribution block = the
// algorithm's block size), the pivot panel's owner *rotates* every step:
// step q's A panel lives on grid column q mod t and B panel on grid row
// q mod s. Two consequences the paper anticipates:
//
//   * consecutive steps broadcast from different roots, so with the
//     overlapped pipeline the forked broadcasts contend less on any single
//     root's send port — communication hides better than in the
//     block-checkerboard layout where one column roots k/(t*b) consecutive
//     steps;
//   * pivot alignment is automatic: only k must be a multiple of the
//     distribution block (m and n may be anything numroc can deal).
//
// hsumma_cyclic uses the outer block B as the distribution block, so each
// outer panel still has a single (rotating) owner column, preserving the
// two-phase hierarchy.
#pragma once

#include "core/hsumma.hpp"
#include "core/summa.hpp"

namespace hs::core {

/// Block-cyclic SUMMA. Distribution block = problem.block (= b). Runs the
/// double-buffered pipeline at args.lookahead >= 1 (the registry caps the
/// depth at 1). Precondition (checked by the registry before any rank
/// spawns, not here): b | k. Broadcasts are flat: args.row_levels and
/// args.col_levels are ignored.
desim::Task<void> summa_cyclic_rank(SummaArgs args);

/// Block-cyclic HSUMMA. Distribution block = problem.effective_outer_block
/// (= B); inner steps slice the outer panel locally. Preconditions (checked
/// by the registry, not here): b | B, B | k. The outer phase is blocking;
/// the inner phase is double-buffered at args.lookahead >= 1.
desim::Task<void> hsumma_cyclic_rank(HsummaArgs args);

}  // namespace hs::core
