#include "core/hier_bcast.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/runner.hpp"
#include "grid/hier_grid.hpp"
#include "mpc/collectives.hpp"
#include "net/platform.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::PayloadMode;
using hs::core::ProblemSpec;
using hs::core::RunOptions;

constexpr double kAlpha = 1e-3;
constexpr double kBeta = 1e-9;

hs::core::RunResult run_once(const RunOptions& options) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta),
      {.ranks = options.grid.size(), .gamma_flop = 1e-9});
  return hs::core::run(machine, options);
}

// Every chain of up to three factors over `size` ranks in which each
// factor divides the size remaining at its level, factors of 1 and factors
// equal to the remaining size included.
std::vector<std::vector<int>> dividing_chains(int size) {
  std::vector<std::vector<int>> chains{{}};
  for (std::size_t i = 0; i < chains.size(); ++i) {
    if (chains[i].size() == 3) continue;
    int remaining = size;
    for (int factor : chains[i]) remaining /= factor;
    for (int factor = 1; factor <= remaining; ++factor) {
      if (remaining % factor != 0) continue;
      std::vector<int> longer = chains[i];
      longer.push_back(factor);
      chains.push_back(std::move(longer));
    }
  }
  return chains;
}

// Every rank ends with the root's data and every non-root receives it
// exactly once, for every chain, root and size up to 16.
TEST(HierBcast, DeliversDataThroughLevels) {
  for (int p = 1; p <= 16; ++p) {
    for (const std::vector<int>& levels : dividing_chains(p)) {
      for (int root = 0; root < p; ++root) {
        hs::desim::Engine engine;
        hs::mpc::Machine machine(
            engine, std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta),
            {.ranks = p,
             .collective_mode = hs::mpc::CollectiveMode::PointToPoint});
        std::vector<std::vector<double>> bufs(static_cast<std::size_t>(p),
                                              std::vector<double>(8, 0.0));
        bufs[static_cast<std::size_t>(root)].assign(8, 1.5 + root);
        auto program = [&](hs::mpc::Comm comm) -> hs::desim::Task<void> {
          const hs::core::BcastChain chain(comm, levels);
          co_await hs::core::hier_bcast(
              chain, root,
              hs::mpc::Buf(std::span<double>(
                  bufs[static_cast<std::size_t>(comm.rank())])),
              hs::net::BcastAlgo::Binomial);
        };
        hs::mpc::run_spmd(machine, program);
        std::string what = "p=" + std::to_string(p) + " root=" +
                           std::to_string(root) + " levels={";
        for (int factor : levels) what += std::to_string(factor) + ",";
        what += "}";
        EXPECT_EQ(machine.messages_transferred(),
                  static_cast<std::uint64_t>(p - 1))
            << what;
        for (const auto& buf : bufs)
          for (double v : buf) ASSERT_EQ(v, 1.5 + root) << what;
      }
    }
  }
}

TEST(HierBcast, EmptyFactorsIsPlainBcast) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta),
      {.ranks = 8});
  auto program = [&](hs::mpc::Comm comm) -> hs::desim::Task<void> {
    const hs::core::BcastChain chain(comm, {});
    co_await hs::core::hier_bcast(chain, 0, hs::mpc::Buf::phantom(512),
                                  hs::net::BcastAlgo::Binomial);
  };
  const double t = hs::mpc::run_spmd(machine, program);
  EXPECT_DOUBLE_EQ(t, hs::net::bcast_time(hs::net::BcastAlgo::Binomial, 8,
                                          512 * 8, kAlpha, kBeta));
}

TEST(HierBcast, DegenerateFactorsSkipOrFlatten) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta),
      {.ranks = 8});
  const std::vector<int> levels{1, 8};
  auto program = [&](hs::mpc::Comm comm) -> hs::desim::Task<void> {
    const hs::core::BcastChain chain(comm, levels);
    co_await hs::core::hier_bcast(chain, 0, hs::mpc::Buf::phantom(512),
                                  hs::net::BcastAlgo::Binomial);
  };
  const double t = hs::mpc::run_spmd(machine, program);
  EXPECT_DOUBLE_EQ(t, hs::net::bcast_time(hs::net::BcastAlgo::Binomial, 8,
                                          512 * 8, kAlpha, kBeta));
}

TEST(HierBcast, NonDividingFactorThrows) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta),
      {.ranks = 8});
  EXPECT_THROW(hs::core::BcastChain(machine.world(0), {3}),
               hs::PreconditionError);
  EXPECT_THROW(hs::core::BcastChain(machine.world(0), {2, 3}),
               hs::PreconditionError);
  EXPECT_THROW(hs::core::check_level_factors(8, {3}), hs::PreconditionError);
}

TEST(MultilevelHsumma, TwoLevelCorrectness) {
  RunOptions options;
  options.algorithm = Algorithm::HsummaMultilevel;
  options.grid = {4, 4};
  options.row_levels = {2};
  options.col_levels = {2};
  options.problem = ProblemSpec::square(96, 8);
  options.verify = true;
  EXPECT_LT(run_once(options).max_error, 1e-12);
}

TEST(MultilevelHsumma, ThreeLevelCorrectness) {
  RunOptions options;
  options.algorithm = Algorithm::HsummaMultilevel;
  options.grid = {8, 8};
  options.row_levels = {2, 2};
  options.col_levels = {2, 2};
  options.problem = ProblemSpec::square(64, 8);
  options.verify = true;
  EXPECT_LT(run_once(options).max_error, 1e-12);
}

// Every chain level broadcasts panels of b, so a chain run with an outer
// block B != b would report B = b numbers under a cache key naming B. Flat
// runs keep accepting B: benches share one ProblemSpec between SUMMA and
// HSUMMA.
TEST(MultilevelHsumma, RejectsAnOuterBlockItWouldIgnore) {
  RunOptions options;
  options.algorithm = Algorithm::HsummaMultilevel;
  options.grid = {4, 4};
  options.row_levels = {2};
  options.col_levels = {2};
  options.problem = ProblemSpec::square(64, 4, 8);
  options.mode = PayloadMode::Phantom;
  EXPECT_THROW(run_once(options), hs::PreconditionError);

  for (const auto outer : {0, 4}) {
    options.problem.outer_block = outer;
    EXPECT_NO_THROW(run_once(options)) << "B=" << outer;
  }
  options.problem.outer_block = 8;
  options.row_levels.clear();
  options.col_levels.clear();
  EXPECT_NO_THROW(run_once(options)) << "flat chain";
  options.algorithm = Algorithm::Summa;
  EXPECT_NO_THROW(run_once(options)) << "summa";
}

TEST(MultilevelHsumma, MatchesHsummaForSingleLevelSplit) {
  // row_levels={J}, col_levels={I}, b=B issues HSUMMA(I x J)'s broadcasts,
  // so messages, wire bytes and (on these grids) the total time match bit
  // for bit. The stage order differs (see summa.hpp), so max comm,
  // max comp and the per-level split may not: here level 0 (Hockney 4x8,
  // BG/P) or max comp (grid5000) differ in the last bits.
  struct Case {
    const char* name;
    std::shared_ptr<const hs::net::NetworkModel> network;
    double gamma_flop;
    hs::mpc::CollectiveMode mode;
    hs::net::BcastAlgo algo;
    hs::grid::GridShape grid;
    ProblemSpec problem;
    int groups;
  };
  const auto g5k = hs::net::Platform::grid5000_calibrated();
  const auto bgp = hs::net::Platform::bluegene_p_calibrated();
  const auto p2p = hs::mpc::CollectiveMode::PointToPoint;
  const auto closed = hs::mpc::CollectiveMode::ClosedForm;
  const auto binomial = hs::net::BcastAlgo::Binomial;
  const auto vdg = hs::net::BcastAlgo::ScatterRingAllgather;
  const std::vector<Case> cases = {
      {"hockney-4x4", std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta),
       1e-9, p2p, binomial, {4, 4}, ProblemSpec::square(128, 8), 4},
      {"hockney-4x8", std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
       1e-9, p2p, binomial, {4, 8}, ProblemSpec{64, 128, 128, 8, 0}, 8},
      {"grid5000-G16", g5k.make_network(), g5k.gamma_flop, p2p, vdg, {8, 16},
       ProblemSpec::square(8192, 64), 16},
      {"grid5000-G32", g5k.make_network(), g5k.gamma_flop, p2p, vdg, {8, 16},
       ProblemSpec::square(8192, 64), 32},
      {"bgp-G64", bgp.make_network(), bgp.gamma_flop, closed, vdg, {64, 64},
       ProblemSpec{65536, 16384, 65536, 256, 0}, 64},
      {"bgp-G512", bgp.make_network(), bgp.gamma_flop, closed, vdg, {64, 64},
       ProblemSpec{65536, 16384, 65536, 256, 0}, 512},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto run_case = [&](const RunOptions& options) {
      hs::desim::Engine engine;
      hs::mpc::Machine machine(engine, c.network,
                               {.ranks = c.grid.size(),
                                .collective_mode = c.mode,
                                .bcast_algo = c.algo,
                                .gamma_flop = c.gamma_flop});
      return hs::core::run(machine, options);
    };
    const hs::grid::GridShape groups =
        hs::grid::group_arrangement(c.grid, c.groups);
    ASSERT_EQ(groups.size(), c.groups);
    RunOptions options;
    options.grid = c.grid;
    options.problem = c.problem;
    options.mode = PayloadMode::Phantom;
    options.bcast_algo = c.algo;

    options.algorithm = Algorithm::HsummaMultilevel;
    options.row_levels = {groups.cols};
    options.col_levels = {groups.rows};
    const auto multilevel = run_case(options);

    options.algorithm = Algorithm::Hsumma;
    options.row_levels.clear();
    options.col_levels.clear();
    options.groups = groups;
    const auto hsumma = run_case(options);

    EXPECT_EQ(multilevel.timing.total_time, hsumma.timing.total_time);
    EXPECT_EQ(multilevel.messages, hsumma.messages);
    EXPECT_EQ(multilevel.wire_bytes, hsumma.wire_bytes);
  }
}

TEST(MultilevelHsumma, ThreeLevelsBeatTwoOnLinearLatencyBroadcast) {
  // With the ring-based broadcast (linear latency term), each extra level
  // shortens the chain: 3-level <= 2-level <= flat on a big enough grid.
  RunOptions options;
  options.algorithm = Algorithm::HsummaMultilevel;
  options.grid = {16, 16};
  options.problem = ProblemSpec::square(512, 16);
  options.mode = PayloadMode::Phantom;
  options.bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;

  options.row_levels = {};
  options.col_levels = {};
  const double flat = run_once(options).timing.max_comm_time;
  options.row_levels = {4};
  options.col_levels = {4};
  const double two_level = run_once(options).timing.max_comm_time;
  options.row_levels = {4, 2};
  options.col_levels = {4, 2};
  const double three_level = run_once(options).timing.max_comm_time;

  EXPECT_LT(two_level, flat);
  EXPECT_LE(three_level, two_level * 1.02);  // at worst about equal
}

TEST(BalancedLevels, ProducesDividingChains) {
  EXPECT_EQ(hs::core::balanced_levels(64, 3), (std::vector<int>{4, 4}));
  EXPECT_EQ(hs::core::balanced_levels(16, 2), (std::vector<int>{4}));
  EXPECT_TRUE(hs::core::balanced_levels(7, 1).empty());
  const auto chain = hs::core::balanced_levels(36, 3);
  int product = 1;
  for (int f : chain) product *= f;
  EXPECT_EQ(36 % product, 0);
}

TEST(BalancedLevels, UnitExtentHasNothingToSplit) {
  EXPECT_TRUE(hs::core::balanced_levels(1, 1).empty());
  EXPECT_TRUE(hs::core::balanced_levels(1, 5).empty());
}

TEST(BalancedLevels, PrimeExtentsCollapseToASingleFactor) {
  // A prime has no balanced divisor, so the chain collapses to {extent}
  // and the deeper levels degenerate (remaining extent 1 stops the loop).
  EXPECT_EQ(hs::core::balanced_levels(7, 2), (std::vector<int>{7}));
  EXPECT_EQ(hs::core::balanced_levels(13, 4), (std::vector<int>{13}));
}

TEST(BalancedLevels, MoreLevelsThanLog2ExtentNeverEmitsUnitFactors) {
  // 10 requested levels over extent 8 can only fill 3: the chain stops at
  // remaining extent 1 instead of padding with 1s.
  EXPECT_EQ(hs::core::balanced_levels(8, 10), (std::vector<int>{2, 2, 2}));
  EXPECT_EQ(hs::core::balanced_levels(2, 100), (std::vector<int>{2}));
}

TEST(BalancedLevels, ContractHoldsAcrossTheSmallDomain) {
  // The documented contract (hier_bcast.hpp): at most levels - 1 factors,
  // every factor >= 2, and the chain's product divides the extent.
  for (int extent = 1; extent <= 24; ++extent) {
    for (int levels = 1; levels <= 6; ++levels) {
      const auto chain = hs::core::balanced_levels(extent, levels);
      EXPECT_LE(static_cast<int>(chain.size()), levels - 1)
          << extent << "," << levels;
      int product = 1;
      for (int f : chain) {
        EXPECT_GE(f, 2) << extent << "," << levels;
        product *= f;
      }
      EXPECT_EQ(extent % product, 0) << extent << "," << levels;
    }
  }
}

TEST(BalancedLevels, RejectsNonPositiveArguments) {
  EXPECT_THROW(hs::core::balanced_levels(0, 1), hs::PreconditionError);
  EXPECT_THROW(hs::core::balanced_levels(4, 0), hs::PreconditionError);
}

}  // namespace
