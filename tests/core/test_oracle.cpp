// The real-payload verification oracle (`ctest -L oracle`): reference blocks
// of C = A*B recomputed from the element generators, its sensitivity to
// wrong results (corrupted elements, the block-cyclic index mapping, a
// `+`-for-`*` kernel bug, NaN), and the max_error goldens of one small run
// per check path (block GEMM, block-cyclic GEMM, LU, Cholesky).
#include "core/verify.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "exec/sim_job.hpp"
#include "grid/distribution.hpp"
#include "la/gemm.hpp"
#include "la/generate.hpp"
#include "la/norms.hpp"
#include "net/platform.hpp"

namespace {

using hs::core::Algorithm;
using hs::la::index_t;

TEST(Verify, ReferenceBlockMatchesFullProduct) {
  const auto gen_a = hs::la::uniform_elements(3);
  const auto gen_b = hs::la::uniform_elements(4);
  // Both sides are gemm_ref over the same l order, so they agree exactly.
  // k = 300 spans two of la::gemm's 256-deep panels, where its summation
  // order departs from gemm_ref's: equality then also pins that the oracle
  // does not run the blocked kernel it checks.
  for (const index_t k : {8, 300}) {
    const hs::la::Matrix a = hs::la::materialize(12, k, gen_a);
    const hs::la::Matrix b = hs::la::materialize(k, 10, gen_b);
    hs::la::Matrix c(12, 10);
    hs::la::gemm_ref(a.view(), b.view(), c.view());

    // Check an interior block.
    const auto block =
        hs::core::reference_c_block(gen_a, gen_b, k, 4, 3, 5, 6);
    for (int i = 0; i < 5; ++i)
      for (int j = 0; j < 6; ++j)
        EXPECT_EQ(block(i, j), c(4 + i, 3 + j)) << "k = " << k;
  }
}

/// The local blocks of C = A*B on a block-cyclic grid, each element copied
/// from the full product at the rank's global row and column.
std::vector<hs::la::Matrix> cyclic_locals(
    const hs::grid::BlockCyclicDistribution& dist, const hs::la::Matrix& c,
    int grid_rows, int grid_cols) {
  std::vector<hs::la::Matrix> locals;
  for (int gr = 0; gr < grid_rows; ++gr) {
    for (int gc = 0; gc < grid_cols; ++gc) {
      hs::la::Matrix local(dist.local_rows(gr), dist.local_cols(gc));
      for (index_t i = 0; i < local.rows(); ++i)
        for (index_t j = 0; j < local.cols(); ++j)
          local(i, j) = c(dist.global_row(gr, i), dist.global_col(gc, j));
      locals.push_back(std::move(local));
    }
  }
  return locals;
}

TEST(Verify, DetectsCorruptedResult) {
  const auto gen_a = hs::la::uniform_elements(3);
  const auto gen_b = hs::la::uniform_elements(4);
  hs::la::Matrix c =
      hs::core::reference_c_block(gen_a, gen_b, 16, 0, 0, 8, 8);
  EXPECT_LT(hs::core::verify_c_block(c.view(), gen_a, gen_b, 16, 0, 0),
            1e-13);
  c(3, 3) += 0.5;
  EXPECT_NEAR(hs::core::verify_c_block(c.view(), gen_a, gen_b, 16, 0, 0), 0.5,
              1e-12);

  // Block-cyclic 2x3 grid with block 4 and ragged edges: a 0.25 error in
  // one global element shows on its owner only, which pins the oracle's
  // global_row/global_col mapping.
  {
    const int s = 2, t = 3;
    const index_t m = 21, n = 26, k = 9;
    const hs::grid::BlockCyclicDistribution dist(m, n, 4, 4, s, t);
    hs::la::Matrix full(m, n);
    hs::la::gemm_ref(hs::la::materialize(m, k, gen_a).view(),
                     hs::la::materialize(k, n, gen_b).view(), full.view());
    const index_t gi = 13, gj = 22;  // owned by grid (1, 2), local (5, 6)
    full(gi, gj) += 0.25;
    const auto locals = cyclic_locals(dist, full, s, t);
    for (int gr = 0; gr < s; ++gr) {
      for (int gc = 0; gc < t; ++gc) {
        SCOPED_TRACE(testing::Message() << "grid (" << gr << ", " << gc << ")");
        const double error = hs::core::verify_c_cyclic(
            locals[static_cast<std::size_t>(gr * t + gc)].view(), dist, gr, gc,
            gen_a, gen_b, k);
        if (gr == dist.row_owner(gi) && gc == dist.col_owner(gj))
          EXPECT_NEAR(error, 0.25, 1e-13);
        else
          EXPECT_LE(error, 1e-13);
      }
    }
    EXPECT_EQ(dist.row_owner(gi), 1);
    EXPECT_EQ(dist.col_owner(gj), 2);
  }

  // The `+`-for-`*` bug of a naive kernel that sums a(i,l) + b(l,j): its
  // block reads far above the 1e-9 bound real runs are held to.
  {
    const index_t k = 16, row0 = 4, col0 = 2;
    hs::la::Matrix wrong(8, 8);
    for (index_t i = 0; i < 8; ++i)
      for (index_t j = 0; j < 8; ++j)
        for (index_t l = 0; l < k; ++l)
          wrong(i, j) += gen_a(row0 + i, l) + gen_b(l, col0 + j);
    EXPECT_GT(
        hs::core::verify_c_block(wrong.view(), gen_a, gen_b, k, row0, col0),
        1e-3);
  }
}

TEST(Verify, NanInOneRankGivesNanMaxError) {
  const auto gen_a = hs::la::uniform_elements(3);
  const auto gen_b = hs::la::uniform_elements(4);
  const int s = 2, t = 3;
  const index_t m = 16, n = 24, k = 8;
  const hs::grid::BlockCyclicDistribution dist(m, n, 4, 4, s, t);
  hs::la::Matrix full(m, n);
  hs::la::gemm_ref(hs::la::materialize(m, k, gen_a).view(),
                   hs::la::materialize(k, n, gen_b).view(), full.view());
  auto locals = cyclic_locals(dist, full, s, t);
  // One NaN on rank 1 of 6: later ranks' finite errors must not hide it.
  locals[1](2, 3) = std::numeric_limits<double>::quiet_NaN();
  double max_error = 0.0;
  for (int gr = 0; gr < s; ++gr) {
    for (int gc = 0; gc < t; ++gc) {
      const std::size_t rank = static_cast<std::size_t>(gr * t + gc);
      const double error = hs::core::verify_c_cyclic(
          locals[rank].view(), dist, gr, gc, gen_a, gen_b, k);
      EXPECT_EQ(std::isnan(error), rank == 1) << "rank " << rank;
      max_error = hs::la::max_propagating_nan(max_error, error);
    }
  }
  EXPECT_TRUE(std::isnan(max_error));
  EXPECT_FALSE(max_error <= 1e-9);

  hs::la::Matrix c = hs::core::reference_c_block(gen_a, gen_b, k, 0, 0, 4, 4);
  c(3, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(
      std::isnan(hs::core::verify_c_block(c.view(), gen_a, gen_b, k, 0, 0)));
}

// --- max_error goldens -----------------------------------------------------

double real_run_max_error(Algorithm algorithm) {
  const auto platform = hs::net::Platform::grid5000_calibrated();
  hs::exec::SimJob job;
  job.platform = platform;
  job.gamma_flop = platform.gamma_flop;
  job.algorithm = algorithm;
  job.grid = {2, 2};
  job.problem = algorithm == Algorithm::Lu || algorithm == Algorithm::Cholesky
                    ? hs::core::ProblemSpec::factorization(128, 16)
                    : hs::core::ProblemSpec::square(128, 16);
  job.mode = hs::core::PayloadMode::Real;
  job.verify = true;
  return hs::exec::run_sim_job(job).max_error;
}

// Grid5000 calibrated, 2x2 grid, n = 128, b = 16, default seed. Recorded
// while the oracle still evaluated the B generator once per multiply-add
// and checked Cholesky through the full L*L^T product; any rewrite of the
// oracle must reproduce every error bit for bit.
TEST(Oracle, MaxErrorGoldens) {
  const struct {
    Algorithm algorithm;
    double max_error;
  } goldens[] = {
      {Algorithm::Summa, 0x1.2p-46},        // verify_c_block
      {Algorithm::SummaCyclic, 0x1.2p-46},  // verify_c_cyclic
      {Algorithm::Lu, 0x1.8p-43},           // L*U against A
      {Algorithm::Cholesky, 0x1.8p-44},     // L*L^T against A
  };
  for (const auto& golden : goldens) {
    SCOPED_TRACE(std::string(hs::core::to_string(golden.algorithm)));
    EXPECT_EQ(real_run_max_error(golden.algorithm), golden.max_error);
  }
}

}  // namespace
