// Cross-mode parity matrix: every registered kernel, simulated once with
// true point-to-point collectives and once in closed form, must move
// exactly the same wire traffic.
//
// The contract under test is the (p-1)*bytes convention: a closed-form
// collective charges the messages and bytes a binomial tree moves, so the
// machine's wire counters stay comparable between modes for every kernel
// in the registry (the broadcast algorithm is pinned to Binomial — other
// algorithms trade latency for bandwidth by moving *different* traffic,
// so counter parity is only defined for the tree shape the convention
// mirrors). PointToPoint is the ground truth here: each broadcast,
// reduction and barrier routes every tree edge through the network
// individually, with lazily materialized rank state; closed form replaces
// each collective with one synchronization site. A kernel whose counters
// diverge between the modes is misaccounting one of them.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/kernel_registry.hpp"
#include "core/runner.hpp"
#include "mpc/collectives.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::KernelDescriptor;
using hs::core::PayloadMode;
using hs::core::ProblemSpec;
using hs::core::RunOptions;
using hs::mpc::Buf;
using hs::mpc::CollectiveMode;
using hs::mpc::Comm;
using hs::mpc::Machine;

constexpr double kAlpha = 1e-4;
constexpr double kBeta = 1e-9;

/// One small but non-degenerate configuration per kernel: a 4x4 grid
/// (square, as Cannon/Fox/Cholesky require), groups/levels engaged where
/// the kernel has a hierarchy dimension, layers engaged for 2.5D.
RunOptions options_for(const KernelDescriptor& kernel) {
  RunOptions options;
  options.algorithm = kernel.kernel;
  options.grid = {4, 4};
  options.problem = ProblemSpec::square(256, 16);
  options.mode = PayloadMode::Phantom;
  options.bcast_algo = hs::net::BcastAlgo::Binomial;
  if (!kernel.factorization && kernel.hier == kernel.kernel)
    options.groups = {2, 2};
  if (kernel.kernel == Algorithm::HsummaMultilevel || kernel.factorization) {
    options.row_levels = {2};
    options.col_levels = {2};
  }
  if (kernel.supports_layers) options.layers = 2;
  return options;
}

hs::core::RunResult run_mode(const RunOptions& options, CollectiveMode mode) {
  hs::desim::Engine engine;
  Machine machine(engine,
                  std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta),
                  {.ranks = options.grid.size() * options.layers,
                   .collective_mode = mode,
                   .bcast_algo = hs::net::BcastAlgo::Binomial,
                   .gamma_flop = 1e-10});
  return hs::core::run(machine, options);
}

TEST(ModeParityMatrix, EveryKernelMovesIdenticalWireTraffic) {
  for (const KernelDescriptor& kernel : hs::core::all_kernels()) {
    SCOPED_TRACE(std::string("kernel = ") + std::string(kernel.name));
    const RunOptions options = options_for(kernel);
    const auto p2p = run_mode(options, CollectiveMode::PointToPoint);
    const auto closed = run_mode(options, CollectiveMode::ClosedForm);
    EXPECT_GT(p2p.messages, 0u);
    EXPECT_EQ(p2p.messages, closed.messages);
    EXPECT_EQ(p2p.wire_bytes, closed.wire_bytes);
  }
}

TEST(ModeParityMatrix, BothModesSimulateEveryKernel) {
  // The matrix must stay total: a kernel that can only run in one mode
  // would silently drop out of the parity loop above.
  for (const KernelDescriptor& kernel : hs::core::all_kernels()) {
    SCOPED_TRACE(std::string("kernel = ") + std::string(kernel.name));
    const RunOptions options = options_for(kernel);
    for (const CollectiveMode mode :
         {CollectiveMode::PointToPoint, CollectiveMode::ClosedForm}) {
      const auto result = run_mode(options, mode);
      EXPECT_GT(result.timing.total_time, 0.0);
    }
  }
}

TEST(ModeParityMatrix, TaskPlanDepthsKeepCounterParity) {
  // The task runtime reorders communication but must never change what is
  // sent: for every task-plan kernel and look-ahead depth, point-to-point
  // and closed form still move identical wire traffic, and that traffic
  // equals the blocking schedule's.
  for (const KernelDescriptor& kernel : hs::core::all_kernels()) {
    if (!kernel.task_plan) continue;
    SCOPED_TRACE(std::string("kernel = ") + std::string(kernel.name));
    RunOptions options = options_for(kernel);
    const auto blocking = run_mode(options, CollectiveMode::ClosedForm);
    for (const int depth : {1, 2, 3}) {
      SCOPED_TRACE("lookahead = " + std::to_string(depth));
      options.lookahead = depth;
      const auto p2p = run_mode(options, CollectiveMode::PointToPoint);
      const auto closed = run_mode(options, CollectiveMode::ClosedForm);
      EXPECT_EQ(p2p.messages, closed.messages);
      EXPECT_EQ(p2p.wire_bytes, closed.wire_bytes);
      EXPECT_EQ(closed.messages, blocking.messages);
      EXPECT_EQ(closed.wire_bytes, blocking.wire_bytes);
    }
  }
}

TEST(ModeParityMatrix, ClosedFormChargesBinomialTreeCounters) {
  // The convention itself, isolated from any kernel: one world broadcast
  // of c doubles in closed form books exactly p-1 messages and
  // (p-1) * 8c wire bytes — what a binomial tree moves.
  for (const int ranks : {2, 7, 16, 33}) {
    SCOPED_TRACE("p = " + std::to_string(ranks));
    constexpr std::size_t kCount = 96;
    hs::desim::Engine engine;
    Machine machine(engine,
                    std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta),
                    {.ranks = ranks,
                     .collective_mode = CollectiveMode::ClosedForm});
    hs::mpc::run_spmd(machine, [](Comm comm) -> hs::desim::Task<void> {
      co_await hs::mpc::bcast(comm, 0, Buf::phantom(kCount),
                              hs::net::BcastAlgo::Binomial);
    });
    const auto p = static_cast<std::uint64_t>(ranks);
    EXPECT_EQ(machine.messages_transferred(), p - 1);
    EXPECT_EQ(machine.bytes_transferred(), (p - 1) * kCount * 8u);
  }
}

}  // namespace
