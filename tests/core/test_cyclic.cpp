// Block-cyclic SUMMA / HSUMMA — the paper's primary declared future work.
#include "core/cyclic.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/runner.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::PayloadMode;
using hs::core::ProblemSpec;
using hs::core::RunOptions;
using hs::grid::GridShape;

hs::core::RunResult run_once(const RunOptions& options, double gamma = 1e-9,
                             double alpha = 1e-4, double beta = 1e-9) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(alpha, beta),
      {.ranks = options.grid.size(), .gamma_flop = gamma});
  return hs::core::run(machine, options);
}

class CyclicSummaTest
    : public ::testing::TestWithParam<std::tuple<GridShape, int, bool>> {};

TEST_P(CyclicSummaTest, MatchesReference) {
  const auto [shape, block, double_buffered] = GetParam();
  RunOptions options;
  options.algorithm = Algorithm::SummaCyclic;
  options.grid = shape;
  options.problem = ProblemSpec::square(96, block);
  options.lookahead = double_buffered ? 1 : 0;
  options.verify = true;
  EXPECT_LT(run_once(options).max_error, 1e-12)
      << shape.rows << "x" << shape.cols << " b=" << block
      << " lookahead=" << options.lookahead;
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndBlocks, CyclicSummaTest,
    ::testing::Values(std::make_tuple(GridShape{2, 2}, 8, false),
                      std::make_tuple(GridShape{2, 2}, 8, true),
                      std::make_tuple(GridShape{2, 4}, 12, false),
                      std::make_tuple(GridShape{3, 4}, 8, true),
                      std::make_tuple(GridShape{4, 4}, 4, true),
                      std::make_tuple(GridShape{1, 8}, 6, false),
                      // More k-blocks than grid columns is NOT required:
                      // cyclic dealing tolerates any ratio.
                      std::make_tuple(GridShape{4, 4}, 48, false)));

TEST(CyclicSumma, ToleratesRaggedLocalShapes) {
  // 96 = 12 blocks of 8 dealt to 5 columns: local counts differ (3/3/2/2/2
  // blocks). The block distribution would reject this outright.
  RunOptions options;
  options.algorithm = Algorithm::SummaCyclic;
  options.grid = {2, 5};
  options.problem = {/*m=*/96, /*k=*/96, /*n=*/96, /*block=*/8};
  options.verify = true;
  EXPECT_LT(run_once(options).max_error, 1e-12);
}

TEST(CyclicSumma, RectangularProblem) {
  RunOptions options;
  options.algorithm = Algorithm::SummaCyclic;
  options.grid = {3, 2};
  options.problem = {/*m=*/60, /*k=*/48, /*n=*/84, /*block=*/8};
  options.lookahead = 1;
  options.verify = true;
  EXPECT_LT(run_once(options).max_error, 1e-12);
}

class CyclicHsummaTest
    : public ::testing::TestWithParam<
          std::tuple<GridShape, GridShape, int, int, bool>> {};

TEST_P(CyclicHsummaTest, MatchesReference) {
  const auto [shape, groups, block, outer, double_buffered] = GetParam();
  RunOptions options;
  options.algorithm = Algorithm::HsummaCyclic;
  options.grid = shape;
  options.groups = groups;
  options.problem = ProblemSpec::square(96, block);
  options.problem.outer_block = outer;
  options.lookahead = double_buffered ? 1 : 0;
  options.verify = true;
  EXPECT_LT(run_once(options).max_error, 1e-12)
      << shape.rows << "x" << shape.cols << " groups " << groups.rows << "x"
      << groups.cols << " b=" << block << " B=" << outer;
}

INSTANTIATE_TEST_SUITE_P(
    GridsGroupsBlocks, CyclicHsummaTest,
    ::testing::Values(
        std::make_tuple(GridShape{4, 4}, GridShape{2, 2}, 8, 0, false),
        std::make_tuple(GridShape{4, 4}, GridShape{2, 2}, 4, 16, false),
        std::make_tuple(GridShape{4, 4}, GridShape{2, 2}, 4, 16, true),
        std::make_tuple(GridShape{4, 4}, GridShape{1, 1}, 8, 8, false),
        std::make_tuple(GridShape{4, 4}, GridShape{4, 4}, 8, 8, false),
        std::make_tuple(GridShape{6, 6}, GridShape{3, 3}, 4, 8, true),
        std::make_tuple(GridShape{2, 4}, GridShape{2, 2}, 6, 12, false)));

TEST(CyclicSumma, RotatingRootsShiftLoadAcrossPorts) {
  // In the block layout, one grid column roots k/(t*b) consecutive steps;
  // cyclic rotates every step. Wire traffic is identical.
  RunOptions options;
  options.grid = {4, 4};
  options.problem = ProblemSpec::square(128, 8);
  options.mode = PayloadMode::Phantom;

  options.algorithm = Algorithm::Summa;
  const auto block_dist = run_once(options);
  options.algorithm = Algorithm::SummaCyclic;
  const auto cyclic = run_once(options);
  EXPECT_EQ(cyclic.messages, block_dist.messages);
  EXPECT_EQ(cyclic.wire_bytes, block_dist.wire_bytes);
  // Blocking timing identical on a homogeneous network (same tree shapes).
  EXPECT_NEAR(cyclic.timing.max_comm_time, block_dist.timing.max_comm_time,
              block_dist.timing.max_comm_time * 1e-9);
}

TEST(CyclicSumma, OverlapsBetterThanBlockDistribution) {
  // The paper's conjecture: the rotating pivot owner overlaps better. With
  // the pipelined overlap and compute roughly matching comm per step, the
  // cyclic layout's exposed communication must not exceed the block
  // layout's (strictly less when the block layout's repeated roots
  // serialize on their send ports).
  RunOptions options;
  options.grid = {4, 4};
  options.problem = ProblemSpec::square(512, 32);
  options.mode = PayloadMode::Phantom;
  options.lookahead = 1;
  options.bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;
  const double gamma = 2e-9;

  options.algorithm = Algorithm::Summa;
  const auto block_dist = run_once(options, gamma);
  options.algorithm = Algorithm::SummaCyclic;
  const auto cyclic = run_once(options, gamma);
  EXPECT_LE(cyclic.timing.total_time,
            block_dist.timing.total_time * (1.0 + 1e-9));
}

TEST(CyclicHsumma, RequiresAlignedOuterBlock) {
  RunOptions options;
  options.algorithm = Algorithm::HsummaCyclic;
  options.grid = {4, 4};
  options.groups = {2, 2};
  options.problem = ProblemSpec::square(96, 8);
  options.problem.outer_block = 36;  // not a multiple of b=8
  EXPECT_THROW(run_once(options), hs::PreconditionError);
  options.problem.block = 9;         // 96 % 36 != 0 -> k not aligned either
  options.problem.outer_block = 36;
  EXPECT_THROW(run_once(options), hs::PreconditionError);
}

TEST(CyclicNames, RoundTrip) {
  EXPECT_EQ(hs::core::algorithm_from_string("summa-cyclic"),
            Algorithm::SummaCyclic);
  EXPECT_EQ(hs::core::algorithm_from_string("hsumma-cyclic"),
            Algorithm::HsummaCyclic);
  EXPECT_EQ(hs::core::to_string(Algorithm::SummaCyclic), "summa-cyclic");
}

}  // namespace
