#include "core/summa.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/runner.hpp"
#include "net/platform.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::PayloadMode;
using hs::core::ProblemSpec;
using hs::core::RunOptions;
using hs::grid::GridShape;

constexpr double kAlpha = 1e-4;
constexpr double kBeta = 1e-9;

hs::core::RunResult run_once(const RunOptions& options,
                             hs::mpc::CollectiveMode mode =
                                 hs::mpc::CollectiveMode::PointToPoint) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta),
      {.ranks = options.grid.size() * options.layers,
       .collective_mode = mode,
       .gamma_flop = 1e-9});
  return hs::core::run(machine, options);
}

// Grid shape x block size sweep, square and rectangular, n = 96.
class SummaCorrectnessTest
    : public ::testing::TestWithParam<std::tuple<GridShape, int>> {};

TEST_P(SummaCorrectnessTest, MatchesReference) {
  const auto [shape, block] = GetParam();
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = shape;
  options.problem = ProblemSpec::square(96, block);
  options.verify = true;
  const auto result = run_once(options);
  EXPECT_LT(result.max_error, 1e-12)
      << shape.rows << "x" << shape.cols << " b=" << block;
}

INSTANTIATE_TEST_SUITE_P(
    GridsAndBlocks, SummaCorrectnessTest,
    ::testing::Values(std::make_tuple(GridShape{1, 1}, 32),
                      std::make_tuple(GridShape{2, 2}, 8),
                      std::make_tuple(GridShape{2, 2}, 48),
                      std::make_tuple(GridShape{4, 4}, 4),
                      std::make_tuple(GridShape{2, 4}, 12),
                      std::make_tuple(GridShape{4, 2}, 12),
                      std::make_tuple(GridShape{1, 8}, 12),
                      std::make_tuple(GridShape{8, 1}, 12),
                      std::make_tuple(GridShape{3, 4}, 8),
                      std::make_tuple(GridShape{6, 2}, 8)));

TEST(Summa, RectangularProblem) {
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = {2, 3};
  options.problem = {/*m=*/60, /*k=*/48, /*n=*/90, /*block=*/8};
  options.verify = true;
  EXPECT_LT(run_once(options).max_error, 1e-12);
}

TEST(Summa, DivisibilityViolationsThrowPrecisely) {
  ProblemSpec problem = ProblemSpec::square(96, 8);
  // m not divisible by grid rows.
  EXPECT_THROW(hs::core::check_summa_divisibility({5, 4}, problem),
               hs::PreconditionError);
  // k not aligned to t*b (96 % (4*36) != 0).
  problem.block = 36;
  EXPECT_THROW(hs::core::check_summa_divisibility({4, 4}, problem),
               hs::PreconditionError);
  problem.block = 8;
  EXPECT_NO_THROW(hs::core::check_summa_divisibility({4, 4}, problem));
  // Zero dimensions are rejected by core::run for every kernel, before the
  // divisibility checks run.
  RunOptions zero;
  zero.algorithm = Algorithm::Summa;
  zero.grid = {1, 1};
  zero.problem = {0, 8, 8, 4};
  EXPECT_THROW(run_once(zero), hs::PreconditionError);
}

TEST(Summa, PhantomAndRealHaveIdenticalTiming) {
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = {2, 4};
  options.problem = ProblemSpec::square(64, 8);

  options.mode = PayloadMode::Real;
  const auto real = run_once(options);
  options.mode = PayloadMode::Phantom;
  const auto phantom = run_once(options);

  EXPECT_DOUBLE_EQ(real.timing.total_time, phantom.timing.total_time);
  EXPECT_DOUBLE_EQ(real.timing.max_comm_time, phantom.timing.max_comm_time);
  EXPECT_EQ(real.messages, phantom.messages);
  EXPECT_EQ(real.wire_bytes, phantom.wire_bytes);
}

TEST(Summa, CommTimeGrowsWithLatencyDominatedSmallBlocks) {
  // Smaller blocks => more steps => more latency (the paper's Fig 5 vs 6).
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = {4, 4};
  options.mode = PayloadMode::Phantom;
  options.problem = ProblemSpec::square(256, 4);
  const double comm_small = run_once(options).timing.max_comm_time;
  options.problem = ProblemSpec::square(256, 64);
  const double comm_large = run_once(options).timing.max_comm_time;
  EXPECT_GT(comm_small, comm_large);
}

TEST(Summa, SingleRankDoesNoCommunication) {
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = {1, 1};
  options.problem = ProblemSpec::square(64, 16);
  options.verify = true;
  const auto result = run_once(options);
  EXPECT_EQ(result.messages, 0u);
  EXPECT_DOUBLE_EQ(result.timing.max_comm_time, 0.0);
  EXPECT_LT(result.max_error, 1e-12);
}

TEST(Summa, ComputeTimeMatchesGammaModel) {
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = {2, 2};
  options.problem = ProblemSpec::square(64, 16);
  options.mode = PayloadMode::Phantom;
  const auto result = run_once(options);
  // 2 n^3 / p flops at gamma = 1e-9 s/flop.
  const double expected = 2.0 * 64.0 * 64.0 * 64.0 / 4.0 * 1e-9;
  EXPECT_NEAR(result.timing.max_comp_time, expected, 1e-12);
}

TEST(Summa, MessageCountMatchesBroadcastStructure) {
  // Binomial broadcast on a 2x2 grid: each step has 2 row + 2 col
  // broadcasts of 1 message each (2 participants).
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = {2, 2};
  options.problem = ProblemSpec::square(64, 16);  // 4 steps
  options.mode = PayloadMode::Phantom;
  options.bcast_algo = hs::net::BcastAlgo::Binomial;
  const auto result = run_once(options);
  EXPECT_EQ(result.messages, 4u * 4u);
  // Wire bytes: each message is a 32x16 panel of doubles.
  EXPECT_EQ(result.wire_bytes, 16u * 32 * 16 * 8);
}

}  // namespace
