// Heterogeneous static rank speeds (MachineConfig::rank_gamma): config
// validation, the compute charge multiplier, equivalence with the fault
// subsystem's RankSlowdown over an infinite window, and the contract that
// communication is unaffected (unlike RankSlowdown, which also stretches
// wire occupancy).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "core/runner.hpp"
#include "fault/fault_plan.hpp"
#include "mpc/comm.hpp"

namespace {

using hs::desim::Engine;
using hs::desim::Task;
using hs::fault::FaultPlan;
using hs::fault::kForever;
using hs::mpc::Buf;
using hs::mpc::Comm;
using hs::mpc::ConstBuf;
using hs::mpc::Machine;

constexpr double kAlpha = 1e-4;
constexpr double kBeta = 1e-9;

std::shared_ptr<hs::net::HockneyModel> hockney() {
  return std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta);
}

TEST(HeteroRanks, ConfigValidation) {
  Engine engine;
  EXPECT_THROW(Machine(engine, hockney(),
                       {.ranks = 4, .rank_gamma = {1.0, 2.0}}),
               hs::PreconditionError);
  EXPECT_THROW(Machine(engine, hockney(),
                       {.ranks = 2, .rank_gamma = {1.0, 0.0}}),
               hs::PreconditionError);
  EXPECT_THROW(Machine(engine, hockney(),
                       {.ranks = 2, .rank_gamma = {1.0, -2.0}}),
               hs::PreconditionError);
  EXPECT_NO_THROW(Machine(engine, hockney(), {.ranks = 2}));
  EXPECT_NO_THROW(
      Machine(engine, hockney(), {.ranks = 2, .rank_gamma = {0.5, 2.0}}));
}

TEST(HeteroRanks, ComputeChargeScalesPerRank) {
  Engine engine;
  Machine machine(engine, hockney(),
                  {.ranks = 2, .gamma_flop = 1e-9, .rank_gamma = {1.0, 4.0}});
  double fast_done = 0.0, slow_done = 0.0;
  auto worker = [&](Comm comm, double* done) -> Task<void> {
    co_await machine.compute(comm.rank(), 1e6);
    *done = engine.now();
  };
  engine.spawn(worker(machine.world(0), &fast_done));
  engine.spawn(worker(machine.world(1), &slow_done));
  engine.run();
  EXPECT_DOUBLE_EQ(fast_done, 1e-3);
  EXPECT_DOUBLE_EQ(slow_done, 4e-3);
}

// rank_gamma is the static analogue of a RankSlowdown with an infinite
// window: the compute charge is identical. (Only the compute charge — the
// fault path also stretches wire occupancy, so the comparison is on
// compute_duration, not on a communicating program.)
TEST(HeteroRanks, MatchesInfiniteWindowRankSlowdownOnCompute) {
  Engine engine;
  Machine static_machine(
      engine, hockney(),
      {.ranks = 3, .gamma_flop = 1e-9, .rank_gamma = {1.0, 3.5, 1.0}});

  Machine fault_machine(engine, hockney(), {.ranks = 3, .gamma_flop = 1e-9});
  FaultPlan plan;
  plan.slowdowns.push_back({1, 0.0, kForever, 3.5});
  fault_machine.set_faults(&plan);

  for (int rank = 0; rank < 3; ++rank)
    for (double base : {1e-6, 1e-3, 2.0})
      EXPECT_DOUBLE_EQ(static_machine.compute_duration(rank, base),
                       fault_machine.compute_duration(rank, base))
          << "rank " << rank << " base " << base;
}

// The static multiplier applies to the base charge, so a fault-window
// slowdown on top multiplies: a 2x slow rank inside a 3x straggler window
// runs 6x slow.
TEST(HeteroRanks, ComposesMultiplicativelyWithFaultWindows) {
  Engine engine;
  Machine machine(engine, hockney(),
                  {.ranks = 2, .gamma_flop = 1e-9, .rank_gamma = {2.0, 1.0}});
  FaultPlan plan;
  plan.slowdowns.push_back({0, 0.0, kForever, 3.0});
  machine.set_faults(&plan);
  EXPECT_DOUBLE_EQ(machine.compute_duration(0, 1e-3), 6e-3);
  EXPECT_DOUBLE_EQ(machine.compute_duration(1, 1e-3), 1e-3);
}

// Unlike RankSlowdown, rank_gamma leaves communication untouched: a
// transfer to a 10x slow rank costs exactly the homogeneous Hockney time.
TEST(HeteroRanks, CommunicationIsUnaffected) {
  Engine engine;
  Machine machine(engine, hockney(),
                  {.ranks = 2,
                   .collective_mode = hs::mpc::CollectiveMode::PointToPoint,
                   .rank_gamma = {1.0, 10.0}});
  auto sender = [&](Comm comm) -> Task<void> {
    co_await comm.send(1, ConstBuf::phantom(1000));
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    co_await comm.recv(0, Buf::phantom(1000));
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(1)));
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), kAlpha + 8000.0 * kBeta);
}

// End to end: a slow rank lengthens a SUMMA run without changing what is
// sent.
TEST(HeteroRanks, SlowRankLengthensARunWithoutChangingTraffic) {
  hs::core::RunOptions options;
  options.algorithm = hs::core::Algorithm::Summa;
  options.grid = {4, 4};
  options.problem = hs::core::ProblemSpec::square(256, 64);
  options.mode = hs::core::PayloadMode::Phantom;

  const auto run_with = [&](std::vector<double> gamma) {
    Engine engine;
    Machine machine(engine, hockney(),
                    {.ranks = 16, .gamma_flop = 5e-8,
                     .rank_gamma = std::move(gamma)});
    return hs::core::run(machine, options);
  };
  const auto homogeneous = run_with({});
  std::vector<double> gamma(16, 1.0);
  gamma[7] = 25.0;
  const auto hetero = run_with(gamma);

  EXPECT_GT(hetero.timing.total_time, homogeneous.timing.total_time);
  EXPECT_EQ(hetero.messages, homogeneous.messages);
  EXPECT_EQ(hetero.wire_bytes, homogeneous.wire_bytes);
  // Everyone else's waits absorb the slow rank's panels: exposed comm
  // grows even though no byte moved differently.
  EXPECT_GT(hetero.timing.max_comm_time, homogeneous.timing.max_comm_time);
}

}  // namespace
