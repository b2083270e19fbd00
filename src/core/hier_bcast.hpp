// Multilevel hierarchical broadcast and the >2-level HSUMMA extension
// (the paper's "more than two levels of hierarchy" future work).
//
// hier_bcast decomposes a broadcast over p ranks into phases given level
// factors f1 x f2 x ... x fL = p: first among f1 representatives (one per
// block of p/f1 ranks, at the root's offset within its block), then
// recursively inside each block. With a single factor {J} applied to
// SUMMA's row broadcast this is exactly HSUMMA's two-phase structure with
// b = B; deeper factor chains give 3-level, 4-level, ... HSUMMA.
#pragma once

#include <span>
#include <vector>

#include "core/spec.hpp"
#include "desim/task.hpp"
#include "mpc/collectives.hpp"
#include "trace/phase.hpp"
#include "trace/recorder.hpp"

namespace hs::core {

/// One phase of a hierarchical broadcast on the calling rank: a plain
/// mpc::bcast on `comm` rooted at `root`. `level` is the position in the
/// factor chain (0 = outermost); the trailing "whatever remains" phase
/// carries level = number of factors consumed before it.
struct BcastStage {
  mpc::Comm comm;
  int root = 0;
  int level = 0;
};

/// The calling rank's phase sequence for hier_bcast(comm, root, factors):
/// awaiting mpc::bcast on each stage in order is exactly the hierarchical
/// broadcast. Exposed so the task runtime can lower every phase to its own
/// comm task (per-level spans, per-level slot-ring dependencies) and the
/// blocking kernel can wrap each phase in a per-level timer, while both
/// share one decomposition. Ranks that are not representatives at a level
/// simply have no stage for it; a size-1 comm yields no stages at all.
std::vector<BcastStage> hier_bcast_stages(mpc::Comm comm, int root,
                                          const std::vector<int>& factors);

/// Hierarchical broadcast. Every element of `level_factors` must divide the
/// remaining block size; factors need not multiply to exactly comm.size()
/// (a trailing factor of "whatever remains" is implied).
desim::Task<void> hier_bcast(mpc::Comm comm, int root, mpc::Buf buf,
                             std::vector<int> level_factors,
                             std::optional<net::BcastAlgo> algo);

struct HsummaMultilevelArgs {
  mpc::Comm comm;
  grid::GridShape shape;
  ProblemSpec problem;               // single block size b (outer_block unused)
  std::vector<int> row_levels;       // factor chain along grid rows (t)
  std::vector<int> col_levels;       // factor chain along grid cols (s)
  LocalBlocks* local = nullptr;
  trace::RankStats* stats = nullptr;
  std::optional<net::BcastAlgo> bcast_algo;
  /// Look-ahead depth (see SummaArgs::lookahead). D >= 1 runs the task
  /// plan (core/task_plan.hpp): the slot ring composes with any chain
  /// depth, so multi-level broadcasts prefetch like flat SUMMA's.
  int lookahead = 0;
  trace::RankTracer tracer;
};

/// SUMMA with every broadcast replaced by a multilevel hierarchical
/// broadcast. With row_levels = {J} and col_levels = {I} this issues the
/// broadcasts of HSUMMA(I x J groups, b = B) in a different order: each
/// step runs all of A's stages, then all of B's, where HSUMMA runs both
/// outer broadcasts before the inner ones. At D = 0 messages and wire
/// bytes match HSUMMA exactly, but virtual times only up to rounding: max
/// comm, max comp and the outer/inner split can differ in the last bits,
/// and on some grids the total does too (tests pin the grids where the
/// total is bit-identical). At D >= 1 the two orders overlap differently
/// and the totals differ outright. Fills the per-level communication split
/// (trace::RankStats::level_comm_time, one slot per chain level plus the
/// trailing remainder phase).
desim::Task<void> hsumma_multilevel_rank(HsummaMultilevelArgs args);

/// Balanced factor chain for a multilevel hierarchy over `extent` ranks
/// with `levels` levels. Contract (pinned by tests/core/test_multilevel.cpp):
///   * returns at most levels-1 factors, each >= 2 and dividing the
///     remaining extent; their product divides `extent` and the implied
///     trailing factor is extent / product (>= 1);
///   * extent = 1 (or levels = 1) -> empty chain (nothing to split);
///   * each factor is the divisor of the remaining extent nearest the
///     balanced ideal remaining^(1/levels_left) — for prime extents that
///     is the extent itself, so the chain collapses to {extent} and the
///     deeper levels degenerate;
///   * once the remaining extent reaches 1 the chain stops, so levels >
///     log2(extent) never produces factors of 1.
/// (e.g. extent=64, levels=3 -> {4, 4} leaving blocks of 4.)
std::vector<int> balanced_levels(int extent, int levels);

}  // namespace hs::core
