// Block-cyclic SUMMA / HSUMMA — the paper's primary declared future work.
// Both are layouts of the SUMMA and HSUMMA kernels (core/panel.hpp's
// panel_layout), not kernels of their own.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
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
  const auto [shape, block, overlapped] = GetParam();
  RunOptions options;
  options.algorithm = Algorithm::SummaCyclic;
  options.grid = shape;
  options.problem = ProblemSpec::square(96, block);
  options.lookahead = overlapped ? 1 : 0;
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
  const auto [shape, groups, block, outer, overlapped] = GetParam();
  RunOptions options;
  options.algorithm = Algorithm::HsummaCyclic;
  options.grid = shape;
  options.groups = groups;
  options.problem = ProblemSpec::square(96, block);
  options.problem.outer_block = outer;
  options.lookahead = overlapped ? 1 : 0;
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

// The cyclic layouts run the SUMMA and HSUMMA task plans, so every
// look-ahead depth runs and must still compute C = A * B.
TEST(CyclicSumma, DeepLookaheadMatchesReference) {
  for (const auto& [shape, block] :
       {std::make_tuple(GridShape{2, 2}, 8),
        std::make_tuple(GridShape{3, 4}, 8),
        std::make_tuple(GridShape{2, 5}, 8),
        std::make_tuple(GridShape{4, 4}, 4)}) {
    for (const int depth : {2, 3}) {
      RunOptions options;
      options.algorithm = Algorithm::SummaCyclic;
      options.grid = shape;
      options.problem = ProblemSpec::square(96, block);
      options.lookahead = depth;
      options.verify = true;
      EXPECT_LT(run_once(options).max_error, 1e-12)
          << shape.rows << "x" << shape.cols << " b=" << block
          << " lookahead=" << depth;
    }
  }
}

TEST(CyclicHsumma, DeepLookaheadMatchesReference) {
  for (const auto& [shape, groups, block, outer] :
       {std::make_tuple(GridShape{4, 4}, GridShape{2, 2}, 8, 0),
        std::make_tuple(GridShape{4, 4}, GridShape{2, 2}, 4, 16),
        std::make_tuple(GridShape{4, 4}, GridShape{1, 1}, 8, 8),
        std::make_tuple(GridShape{6, 6}, GridShape{3, 3}, 4, 8)}) {
    for (const int depth : {2, 3}) {
      RunOptions options;
      options.algorithm = Algorithm::HsummaCyclic;
      options.grid = shape;
      options.groups = groups;
      options.problem = ProblemSpec::square(96, block);
      options.problem.outer_block = outer;
      options.lookahead = depth;
      options.verify = true;
      EXPECT_LT(run_once(options).max_error, 1e-12)
          << shape.rows << "x" << shape.cols << " groups " << groups.rows
          << "x" << groups.cols << " b=" << block << " B=" << outer
          << " lookahead=" << depth;
    }
  }
}

// Hexfloat rows captured from the separate block-cyclic kernels this
// layout replaced (real payloads, HockneyModel(1e-4, 1e-9), gamma 1e-9,
// binomial broadcasts, m = k = n = 96, b = B = 8). The merged kernels
// reproduce every row bit for bit but one: hsumma-cyclic on the 4x4 grid
// with 1x1 groups at D = 1 in PointToPoint mode, where the HSUMMA task
// plan forks the outer broadcasts that the old double buffer awaited
// inline. That row is pinned at the merged kernel's values; the old ones
// were total 0x1.1eba1098bab2ep-8, max comm 0x1.177aa392ca506p-8, mean
// comm 0x1.0f93be2fc8673p-8 and mean comp 0x1.cfdb417c189fdp-14.
struct CyclicRow {
  const char* name;
  double total_time;
  double max_comm_time;
  double max_comp_time;
  double mean_comm_time;
  double mean_comp_time;
  std::uint64_t messages;
  std::uint64_t wire_bytes;
  double max_error;
};

constexpr CyclicRow kCyclicRows[] = {
    {"summa-cyclic 2x5 D0 cf",
     0x1.518626ed7708ep-8, 0x1.476c94ed7c33bp-8, 0x1.cfdb417c18a08p-13,
     0x1.45aa781bed06ep-8, 0x1.7315cdfce0818p-13, 156u, 368640u, 0x1p-47},
    {"summa-cyclic 2x5 D0 pp",
     0x1.4fc779b7e3171p-8, 0x1.45ade7b7e841ep-8, 0x1.cfdb417c18a08p-13,
     0x1.4138168d59464p-8, 0x1.7315cdfce0818p-13, 156u, 368640u, 0x1p-47},
    {"summa-cyclic 2x5 D1 cf",
     0x1.e8c5484082f48p-9, 0x1.d4a3524c7571p-9, 0x1.cfdb417c18a36p-13,
     0x1.d118397160a18p-9, 0x1.7315cdfce082bp-13, 156u, 368640u, 0x1p-47},
    {"summa-cyclic 2x5 D1 pp",
     0x1.1c35d1da39025p-8, 0x1.1224d6e032409p-8, 0x1.cfdb417c18a1ap-13,
     0x1.0f0048dc2f18ep-8, 0x1.7315cdfce0822p-13, 156u, 368640u, 0x1p-47},
    {"summa-cyclic 3x4 D0 cf",
     0x1.49dfa5a015bd4p-8, 0x1.4035beed7fe48p-8, 0x1.353cd652bb17ap-13,
     0x1.4035beed7fe48p-8, 0x1.353cd652bb179p-13, 204u, 368640u, 0x1p-47},
    {"summa-cyclic 3x4 D0 pp",
     0x1.49dfa5a015bd8p-8, 0x1.4035beed7fe4cp-8, 0x1.353cd652bb17ep-13,
     0x1.3dfdea53f4211p-8, 0x1.353cd652bb17fp-13, 204u, 368640u, 0x1p-47},
    {"summa-cyclic 3x4 D1 cf",
     0x1.42a0389a255abp-9, 0x1.2f4c6b34f9a94p-9, 0x1.353cd652bb17cp-13,
     0x1.2f4c6b34f9a93p-9, 0x1.353cd652bb17dp-13, 204u, 368640u, 0x1p-47},
    {"summa-cyclic 3x4 D1 pp",
     0x1.efa2ff62bafa1p-9, 0x1.dc4f31fd8f489p-9, 0x1.353cd652bb17ep-13,
     0x1.d360200c76165p-9, 0x1.353cd652bb17fp-13, 204u, 368640u, 0x1p-47},
    {"hsumma-cyclic 4x4 g2x2 D0 cf",
     0x1.46a703648e754p-8, 0x1.3f67965e9e12cp-8, 0x1.cfdb417c18a1cp-14,
     0x1.3f67965e9e12dp-8, 0x1.cfdb417c18a1fp-14, 288u, 442368u, 0x1p-47},
    {"hsumma-cyclic 4x4 g2x2 D0 pp",
     0x1.46a703648e754p-8, 0x1.3f67965e9e12cp-8, 0x1.cfdb417c18a1cp-14,
     0x1.3f67965e9e12dp-8, 0x1.cfdb417c18a1fp-14, 288u, 442368u, 0x1p-47},
    {"hsumma-cyclic 4x4 g2x2 D1 cf",
     0x1.9dc05602265c3p-9, 0x1.8f417bf645974p-9, 0x1.cfdb417c189ecp-14,
     0x1.8f417bf645972p-9, 0x1.cfdb417c189efp-14, 288u, 442368u, 0x1p-47},
    {"hsumma-cyclic 4x4 g2x2 D1 pp",
     0x1.fae937331477p-9, 0x1.ec6a5d2733b22p-9, 0x1.cfdb417c189dcp-14,
     0x1.e5c2df5a9067p-9, 0x1.cfdb417c189d7p-14, 288u, 442368u, 0x1p-47},
    {"hsumma-cyclic 4x4 g1x1 D0 cf",
     0x1.46a703648e75p-8, 0x1.3f67965e9e128p-8, 0x1.cfdb417c18a1cp-14,
     0x1.3f67965e9e126p-8, 0x1.cfdb417c18a1fp-14, 288u, 442368u, 0x1p-47},
    {"hsumma-cyclic 4x4 g1x1 D0 pp",
     0x1.46a703648e754p-8, 0x1.3f67965e9e12cp-8, 0x1.cfdb417c18a1cp-14,
     0x1.3f67965e9e12ep-8, 0x1.cfdb417c18a1fp-14, 288u, 442368u, 0x1p-47},
    {"hsumma-cyclic 4x4 g1x1 D1 cf",
     0x1.4de6706a7ed78p-9, 0x1.3f67965e9e128p-9, 0x1.cfdb417c18a08p-14,
     0x1.3f67965e9e126p-9, 0x1.cfdb417c18a04p-14, 288u, 442368u, 0x1p-47},
    {"hsumma-cyclic 4x4 g1x1 D1 pp",
     0x1.181292cc1767cp-8, 0x1.10d325c627054p-8, 0x1.cfdb417c18a0cp-14,
     0x1.0a961fd64deedp-8, 0x1.cfdb417c189f3p-14, 288u, 442368u, 0x1p-47},
};

TEST(CyclicLayout, PinnedRowsAcrossDepthsAndModes) {
  struct Shape {
    const char* name;
    Algorithm algorithm;
    GridShape grid;
    GridShape groups;
  };
  const Shape shapes[] = {
      {"summa-cyclic 2x5", Algorithm::SummaCyclic, {2, 5}, {1, 1}},
      {"summa-cyclic 3x4", Algorithm::SummaCyclic, {3, 4}, {1, 1}},
      {"hsumma-cyclic 4x4 g2x2", Algorithm::HsummaCyclic, {4, 4}, {2, 2}},
      {"hsumma-cyclic 4x4 g1x1", Algorithm::HsummaCyclic, {4, 4}, {1, 1}},
  };
  std::size_t row = 0;
  for (const Shape& shape : shapes)
    for (const int depth : {0, 1})
      for (const auto mode : {hs::mpc::CollectiveMode::ClosedForm,
                              hs::mpc::CollectiveMode::PointToPoint}) {
        const std::string name =
            std::string(shape.name) + " D" + std::to_string(depth) +
            (mode == hs::mpc::CollectiveMode::ClosedForm ? " cf" : " pp");
        ASSERT_LT(row, std::size(kCyclicRows));
        const CyclicRow& expected = kCyclicRows[row++];
        ASSERT_EQ(name, expected.name);
        hs::desim::Engine engine;
        hs::mpc::Machine machine(
            engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
            {.ranks = shape.grid.size(), .collective_mode = mode,
             .gamma_flop = 1e-9});
        RunOptions options;
        options.algorithm = shape.algorithm;
        options.grid = shape.grid;
        options.groups = shape.groups;
        options.problem = {96, 96, 96, 8, 0};
        options.bcast_algo = hs::net::BcastAlgo::Binomial;
        options.lookahead = depth;
        options.verify = true;
        const hs::core::RunResult r = hs::core::run(machine, options);
        EXPECT_EQ(r.timing.total_time, expected.total_time) << name;
        EXPECT_EQ(r.timing.max_comm_time, expected.max_comm_time) << name;
        EXPECT_EQ(r.timing.max_comp_time, expected.max_comp_time) << name;
        EXPECT_EQ(r.timing.mean_comm_time, expected.mean_comm_time) << name;
        EXPECT_EQ(r.timing.mean_comp_time, expected.mean_comp_time) << name;
        EXPECT_EQ(r.messages, expected.messages) << name;
        EXPECT_EQ(r.wire_bytes, expected.wire_bytes) << name;
        EXPECT_EQ(r.max_error, expected.max_error) << name;
      }
  EXPECT_EQ(row, std::size(kCyclicRows));
}

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
