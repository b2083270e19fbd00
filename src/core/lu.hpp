// Distributed right-looking block LU factorization with hierarchical panel
// broadcasts — the paper's "apply the same approach to other numerical
// linear algebra kernels such as QR/LU factorization" future work.
//
// Per pivot step k (block size b, unpivoted; the driver generates
// diagonally dominant inputs):
//   1. the diagonal block's owner factors A_kk = L_kk U_kk locally and
//      broadcasts the factored block down its grid column and across its
//      grid row;
//   2. pivot-column ranks solve L_ik = A_ik U_kk^{-1}, pivot-row ranks
//      solve U_kj = L_kk^{-1} A_kj;
//   3. the L panels broadcast along grid rows and the U panels along grid
//      columns — the same SUMMA-shaped broadcasts the paper's hierarchy
//      accelerates, here decomposed with hier_bcast level factors;
//   4. every rank updates its trailing sub-matrix A_ij -= L_ik U_kj.
//
// With empty level factors this is plain distributed block LU; with
// factors {J} / {I} it is the LU analogue of HSUMMA.
#pragma once

#include <optional>
#include <vector>

#include "core/spec.hpp"
#include "desim/task.hpp"
#include "la/generate.hpp"
#include "mpc/comm.hpp"
#include "trace/phase.hpp"
#include "trace/recorder.hpp"

namespace hs::core {

struct LuArgs {
  mpc::Comm comm;
  grid::GridShape shape;     // s x t
  index_t n = 0;             // square matrix dimension
  index_t block = 0;         // panel width b
  std::vector<int> row_levels;  // hierarchy along grid rows (t)
  std::vector<int> col_levels;  // hierarchy along grid cols (s)
  /// Local (n/s) x (n/t) block of A; factored in place. nullptr = phantom.
  la::Matrix* local_a = nullptr;
  trace::RankStats* stats = nullptr;
  std::optional<net::BcastAlgo> bcast_algo;
  /// Look-ahead depth (see SummaArgs::lookahead). D >= 1 runs the task
  /// plan: the trailing update of step k is split into the next pivot
  /// column strip plus the remainder, so panel k+1 factors and its
  /// broadcasts fly while the bulk of update k still streams (classic
  /// look-ahead LU; the depth is 1 panel regardless of D, which only
  /// widens the diag/panel slot rings).
  int lookahead = 0;
  /// Optional structured trace sink (step marks + task spans).
  trace::RankTracer tracer;
};

/// Per-rank program. Preconditions (checked by the registry before any rank
/// spawns, not here): s | n, t | n, b | n/s, b | n/t.
desim::Task<void> lu_rank(LuArgs args);

/// The preconditions above, throwing hs::PreconditionError on violation.
void check_lu_preconditions(grid::GridShape shape, index_t n, index_t block);

/// Input generator the LU harness factors: uniform noise plus n on the
/// diagonal (diagonally dominant, so unpivoted LU is stable). Exposed so
/// callers can rebuild A on the host (e.g. for solves against the factors).
la::ElementFn lu_input_elements(std::uint64_t seed, index_t n);

}  // namespace hs::core

// The end-to-end harness for this kernel is core::run() with
// Algorithm::Lu (problem = ProblemSpec::factorization(n, block)); see
// core/kernel_registry.hpp for the registered descriptor.
