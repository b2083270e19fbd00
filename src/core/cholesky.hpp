// Distributed right-looking block Cholesky (A = L * L^T, SPD inputs) with
// hierarchical panel broadcasts — together with core/lu.hpp this realizes
// the paper's "apply the same approach to other numerical linear algebra
// kernels" for the one-sided factorizations.
//
// Per pivot step (square s x s grid required; the symmetric transpose path
// pairs grid row i with grid col i):
//   1. the diagonal owner factors A_kk = L_kk L_kk^T and broadcasts it down
//      its grid column;
//   2. pivot-column ranks solve L_ik = A_ik L_kk^{-T};
//   3. the L panel broadcasts along grid rows (left factor) and, after a
//      transpose hop to the diagonal rank, down grid columns (right
//      factor) — both hierarchically;
//   4. trailing update A_ij -= L_ik L_jk^T.
#pragma once

#include <optional>
#include <vector>

#include "core/spec.hpp"
#include "desim/task.hpp"
#include "la/generate.hpp"
#include "mpc/comm.hpp"
#include "trace/phase.hpp"

namespace hs::core {

struct CholeskyArgs {
  mpc::Comm comm;
  grid::GridShape shape;        // must be square (s x s)
  index_t n = 0;
  index_t block = 0;
  std::vector<int> row_levels;  // hierarchy for the row broadcasts
  std::vector<int> col_levels;  // hierarchy for the column broadcasts
  la::Matrix* local_a = nullptr;  // factored in place; nullptr = phantom
  trace::RankStats* stats = nullptr;
  std::optional<net::BcastAlgo> bcast_algo;
};

/// Per-rank program. Preconditions (checked by the registry before any rank
/// spawns, not here): s == t, s | n, b | n/s.
desim::Task<void> cholesky_rank(CholeskyArgs args);

/// The preconditions above, throwing hs::PreconditionError on violation.
void check_cholesky_preconditions(grid::GridShape shape, index_t n,
                                  index_t block);

/// Input generator the Cholesky harness factors: symmetric uniform noise
/// plus n on the diagonal — symmetric diagonally dominant with a positive
/// diagonal, hence SPD.
la::ElementFn cholesky_input_elements(std::uint64_t seed, index_t n);

}  // namespace hs::core

// The end-to-end harness for this kernel is core::run() with
// Algorithm::Cholesky (problem = ProblemSpec::factorization(n, block)); see
// core/kernel_registry.hpp for the registered descriptor.
