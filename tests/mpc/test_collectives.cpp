#include "mpc/collectives.hpp"

#include <gtest/gtest.h>

#include "net/topology.hpp"

#include <memory>
#include <tuple>
#include <vector>

namespace {

using hs::desim::Engine;
using hs::desim::Task;
using hs::mpc::Buf;
using hs::mpc::Comm;
using hs::mpc::ConstBuf;
using hs::mpc::Machine;
using hs::net::BcastAlgo;

constexpr double kAlpha = 1e-4;
constexpr double kBeta = 1e-9;

std::shared_ptr<hs::net::HockneyModel> hockney() {
  return std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta);
}

// ---- broadcast correctness over algorithms, rank counts, roots ---------

class BcastTest : public ::testing::TestWithParam<
                      std::tuple<BcastAlgo, int /*ranks*/, int /*root*/>> {};

TEST_P(BcastTest, DeliversRootDataToEveryRank) {
  const auto [algo, ranks, root] = GetParam();
  if (root >= ranks) GTEST_SKIP() << "root out of range for this rank count";
  constexpr std::size_t kCount = 1000;  // not divisible by most rank counts

  Engine engine;
  Machine machine(engine, hockney(), {.ranks = ranks});
  std::vector<std::vector<double>> bufs(
      static_cast<std::size_t>(ranks), std::vector<double>(kCount, -1.0));
  for (std::size_t i = 0; i < kCount; ++i)
    bufs[static_cast<std::size_t>(root)][i] = static_cast<double>(i) * 0.5;

  auto program = [&](Comm comm) -> Task<void> {
    co_await hs::mpc::bcast(
        comm, root,
        Buf(std::span<double>(bufs[static_cast<std::size_t>(comm.rank())])),
        algo);
  };
  for (int r = 0; r < ranks; ++r) engine.spawn(program(machine.world(r)));
  engine.run();

  for (int r = 0; r < ranks; ++r)
    for (std::size_t i = 0; i < kCount; ++i)
      ASSERT_EQ(bufs[static_cast<std::size_t>(r)][i],
                static_cast<double>(i) * 0.5)
          << "rank " << r << " element " << i;
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsByRanksByRoot, BcastTest,
    ::testing::Combine(
        ::testing::Values(BcastAlgo::Flat, BcastAlgo::Binomial,
                          BcastAlgo::ScatterRingAllgather,
                          BcastAlgo::ScatterRecDblAllgather,
                          BcastAlgo::Pipelined, BcastAlgo::MpichAuto),
        ::testing::Values(1, 2, 3, 4, 7, 8, 16),
        ::testing::Values(0, 2, 6)));

// ---- broadcast timing equals the closed forms (power-of-two ranks) -----

class BcastTimingTest
    : public ::testing::TestWithParam<std::tuple<BcastAlgo, int>> {};

TEST_P(BcastTimingTest, SimulatedTimeEqualsClosedForm) {
  const auto [algo, ranks] = GetParam();
  constexpr std::size_t kCount = 1 << 13;

  Engine engine;
  Machine machine(engine, hockney(), {.ranks = ranks});
  auto program = [&](Comm comm) -> Task<void> {
    co_await hs::mpc::bcast(comm, 0, Buf::phantom(kCount), algo);
  };
  const double simulated = hs::mpc::run_spmd(machine, program);
  const double closed =
      hs::net::bcast_time(algo, ranks, kCount * 8, kAlpha, kBeta);
  EXPECT_NEAR(simulated, closed, closed * 1e-12)
      << hs::net::to_string(algo) << " on " << ranks << " ranks";
}

INSTANTIATE_TEST_SUITE_P(
    PowerOfTwo, BcastTimingTest,
    ::testing::Combine(
        ::testing::Values(BcastAlgo::Flat, BcastAlgo::Binomial,
                          BcastAlgo::ScatterRingAllgather,
                          BcastAlgo::ScatterRecDblAllgather,
                          BcastAlgo::Pipelined),
        ::testing::Values(2, 4, 8, 16, 32, 64)));

TEST(BcastTiming, NonRootEntryDelaysCompletion) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 4});
  auto program = [&](Comm comm) -> Task<void> {
    if (comm.rank() == 3) co_await engine.sleep(1.0);  // straggler
    co_await hs::mpc::bcast(comm, 0, Buf::phantom(100), BcastAlgo::Binomial);
  };
  const double t = hs::mpc::run_spmd(machine, program);
  EXPECT_GE(t, 1.0);
}

// ---- closed-form collective mode ---------------------------------------

class ClosedFormBcastTest
    : public ::testing::TestWithParam<std::tuple<BcastAlgo, int>> {};

TEST_P(ClosedFormBcastTest, MatchesPointToPointTotalTime) {
  const auto [algo, ranks] = GetParam();
  constexpr std::size_t kCount = 4096;

  auto run_mode = [&](hs::mpc::CollectiveMode mode) {
    Engine engine;
    Machine machine(engine, hockney(),
                    {.ranks = ranks, .collective_mode = mode});
    auto program = [&](Comm comm) -> Task<void> {
      co_await hs::mpc::bcast(comm, 1 % ranks, Buf::phantom(kCount), algo);
    };
    return hs::mpc::run_spmd(machine, program);
  };

  const double p2p_time = run_mode(hs::mpc::CollectiveMode::PointToPoint);
  const double closed_time = run_mode(hs::mpc::CollectiveMode::ClosedForm);
  EXPECT_NEAR(p2p_time, closed_time, closed_time * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    PowerOfTwo, ClosedFormBcastTest,
    ::testing::Combine(
        ::testing::Values(BcastAlgo::Flat, BcastAlgo::Binomial,
                          BcastAlgo::ScatterRingAllgather,
                          BcastAlgo::ScatterRecDblAllgather),
        ::testing::Values(2, 8, 32)));

TEST(ClosedFormMode, DeliversRealDataToo) {
  Engine engine;
  Machine machine(engine, hockney(),
                  {.ranks = 4,
                   .collective_mode = hs::mpc::CollectiveMode::ClosedForm});
  std::vector<std::vector<double>> bufs(4, std::vector<double>(16, 0.0));
  bufs[2].assign(16, 9.0);
  auto program = [&](Comm comm) -> Task<void> {
    co_await hs::mpc::bcast(
        comm, 2,
        Buf(std::span<double>(bufs[static_cast<std::size_t>(comm.rank())])),
        BcastAlgo::Binomial);
  };
  hs::mpc::run_spmd(machine, program);
  for (int r = 0; r < 4; ++r)
    for (double v : bufs[static_cast<std::size_t>(r)]) EXPECT_EQ(v, 9.0);
}

TEST(ClosedFormMode, RequiresHockneyNetwork) {
  Engine engine;
  auto torus = std::make_shared<hs::net::Torus3DModel>(
      std::array<int, 3>{2, 2, 1}, 1, 1e-6, 1e-7, 1e-9);
  EXPECT_THROW(
      Machine(engine, torus,
              {.ranks = 4,
               .collective_mode = hs::mpc::CollectiveMode::ClosedForm}),
      hs::PreconditionError);
}

TEST(ClosedFormMode, BackToBackCollectivesKeepOrder) {
  Engine engine;
  Machine machine(engine, hockney(),
                  {.ranks = 8,
                   .collective_mode = hs::mpc::CollectiveMode::ClosedForm});
  auto program = [&](Comm comm) -> Task<void> {
    co_await hs::mpc::bcast(comm, 0, Buf::phantom(64), BcastAlgo::Binomial);
    co_await hs::mpc::bcast(comm, 3, Buf::phantom(256), BcastAlgo::Binomial);
    co_await hs::mpc::reduce(comm, 5, ConstBuf::phantom(32),
                             Buf::phantom(32));
  };
  const double t = hs::mpc::run_spmd(machine, program);
  const double expected =
      hs::net::bcast_time(BcastAlgo::Binomial, 8, 64 * 8, kAlpha, kBeta) +
      hs::net::bcast_time(BcastAlgo::Binomial, 8, 256 * 8, kAlpha, kBeta) +
      hs::net::reduce_time(8, 32 * 8, kAlpha, kBeta);
  EXPECT_DOUBLE_EQ(t, expected);
}

// ---- reduce ------------------------------------------------------------

class RankCountTest : public ::testing::TestWithParam<int> {};

TEST_P(RankCountTest, ReduceSumsContributions) {
  const int ranks = GetParam();
  const int root = (ranks > 2) ? 2 : 0;
  constexpr std::size_t kCount = 33;

  Engine engine;
  Machine machine(engine, hockney(), {.ranks = ranks});
  std::vector<double> result(kCount, -1.0);
  auto program = [&](Comm comm) -> Task<void> {
    std::vector<double> mine(kCount);
    for (std::size_t i = 0; i < kCount; ++i)
      mine[i] = static_cast<double>(comm.rank() + 1) * static_cast<double>(i);
    co_await hs::mpc::reduce(comm, root, std::span<const double>(mine),
                             comm.rank() == root
                                 ? Buf(std::span<double>(result))
                                 : Buf{});
  };
  hs::mpc::run_spmd(machine, program);

  const double rank_sum = ranks * (ranks + 1) / 2.0;
  for (std::size_t i = 0; i < kCount; ++i)
    EXPECT_DOUBLE_EQ(result[i], rank_sum * static_cast<double>(i));
}

INSTANTIATE_TEST_SUITE_P(Sweep, RankCountTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16));

TEST(Reduce, PhantomModeChargesTimeOnly) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 8});
  auto program = [&](Comm comm) -> Task<void> {
    co_await hs::mpc::reduce(comm, 0, ConstBuf::phantom(512),
                             Buf::phantom(512));
  };
  const double t = hs::mpc::run_spmd(machine, program);
  EXPECT_DOUBLE_EQ(t, hs::net::reduce_time(8, 512 * 8, kAlpha, kBeta));
}

}  // namespace
