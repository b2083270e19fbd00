// Stress and failure-injection tests for the message-passing core.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "mpc/collectives.hpp"
#include "net/platform.hpp"
#include "net/topology.hpp"

namespace {

using hs::desim::Async;
using hs::desim::Engine;
using hs::desim::Task;
using hs::mpc::Buf;
using hs::mpc::Comm;
using hs::mpc::ConstBuf;
using hs::mpc::Machine;

std::shared_ptr<hs::net::HockneyModel> hockney() {
  return std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9);
}

TEST(Stress, ConcurrentCollectivesOnOneCommunicatorStayApart) {
  // Two broadcasts in flight concurrently on the same communicator with
  // different payload values: sequence-derived tags must keep the trees
  // from cross-matching (this is what overlap relies on).
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 8});
  std::vector<std::vector<double>> first(8, std::vector<double>(512, 0.0));
  std::vector<std::vector<double>> second(8, std::vector<double>(512, 0.0));
  first[0].assign(512, 1.0);
  second[0].assign(512, 2.0);

  auto program = [&](Comm comm) -> Task<void> {
    const auto rank = static_cast<std::size_t>(comm.rank());
    Async a = Async::start(
        engine, hs::mpc::bcast(comm, 0, Buf(std::span<double>(first[rank])),
                               hs::net::BcastAlgo::ScatterRingAllgather));
    Async b = Async::start(
        engine, hs::mpc::bcast(comm, 0, Buf(std::span<double>(second[rank])),
                               hs::net::BcastAlgo::ScatterRingAllgather));
    co_await a.wait();
    co_await b.wait();
  };
  hs::mpc::run_spmd(machine, program);
  for (int r = 0; r < 8; ++r) {
    for (double v : first[static_cast<std::size_t>(r)]) ASSERT_EQ(v, 1.0);
    for (double v : second[static_cast<std::size_t>(r)]) ASSERT_EQ(v, 2.0);
  }
}

TEST(Stress, InterleavedCollectivesAcrossManySteps) {
  // Pipeline pattern: rank forks bcast q+1 before joining bcast q, for 50
  // steps, values checked per step.
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 4});
  constexpr int kSteps = 50;
  std::vector<std::vector<std::vector<double>>> bufs(
      4, std::vector<std::vector<double>>(kSteps, std::vector<double>(8)));
  for (int q = 0; q < kSteps; ++q)
    bufs[static_cast<std::size_t>(q % 4)][static_cast<std::size_t>(q)]
        .assign(8, static_cast<double>(q) + 1.0);

  auto program = [&](Comm comm) -> Task<void> {
    const auto me = static_cast<std::size_t>(comm.rank());
    Async pending[2];
    auto fork = [&](int q) {
      pending[q % 2] = Async::start(
          engine,
          hs::mpc::bcast(comm, q % 4,
                         Buf(std::span<double>(
                             bufs[me][static_cast<std::size_t>(q)])),
                         hs::net::BcastAlgo::Binomial));
    };
    fork(0);
    for (int q = 0; q < kSteps; ++q) {
      co_await pending[q % 2].wait();
      if (q + 1 < kSteps) fork(q + 1);
      co_await engine.sleep(1e-6);  // "compute"
    }
  };
  hs::mpc::run_spmd(machine, program);
  for (int r = 0; r < 4; ++r)
    for (int q = 0; q < kSteps; ++q)
      for (double v :
           bufs[static_cast<std::size_t>(r)][static_cast<std::size_t>(q)])
        ASSERT_EQ(v, static_cast<double>(q) + 1.0) << "rank " << r << " q "
                                                   << q;
}

TEST(Stress, MismatchedClosedFormCollectivesDetected) {
  // One rank issues a broadcast while the others issue a reduce at the
  // same sequence point: the machine must diagnose it, not hang silently.
  Engine engine;
  Machine machine(engine, hockney(),
                  {.ranks = 4,
                   .collective_mode = hs::mpc::CollectiveMode::ClosedForm});
  auto program = [&](Comm comm) -> Task<void> {
    if (comm.rank() == 0)
      co_await hs::mpc::bcast(comm, 0, Buf::phantom(8),
                              hs::net::BcastAlgo::Binomial);
    else
      co_await hs::mpc::reduce(comm, 0, ConstBuf::phantom(8),
                               Buf::phantom(8));
  };
  for (int r = 0; r < 4; ++r)
    engine.spawn(program(machine.world(r)), "rank " + std::to_string(r));
  EXPECT_THROW(engine.run(), hs::PreconditionError);
}

TEST(Stress, PartialCollectiveDeadlocksWithDiagnostics) {
  // Only half the communicator enters the broadcast: deadlock, with the
  // stuck ranks named.
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 4});
  auto program = [&](Comm comm) -> Task<void> {
    if (comm.rank() < 2)
      co_await hs::mpc::bcast(comm, 0, Buf::phantom(64),
                              hs::net::BcastAlgo::Binomial);
  };
  for (int r = 0; r < 4; ++r)
    engine.spawn(program(machine.world(r)), "rank " + std::to_string(r));
  EXPECT_THROW(engine.run(), hs::desim::DeadlockError);
}

TEST(Stress, ManyRanksManyMessages) {
  // 64 ranks, each sending 100 messages around a ring: 6400 transfers.
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 64});
  auto program = [&](Comm comm) -> Task<void> {
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() - 1 + comm.size()) % comm.size();
    for (int i = 0; i < 100; ++i)
      co_await comm.sendrecv(right, ConstBuf::phantom(128), left,
                             Buf::phantom(128));
  };
  hs::mpc::run_spmd(machine, program);
  EXPECT_EQ(machine.messages_transferred(), 6400u);
  // Fully parallel ring: 100 rounds of one hop each.
  EXPECT_DOUBLE_EQ(engine.now(), 100.0 * (1e-5 + 128.0 * 8.0 * 1e-9));
}

TEST(Stress, CollectivesOnTorusTopologyComplete) {
  auto torus = std::make_shared<hs::net::Torus3DModel>(
      std::array<int, 3>{4, 2, 2}, 1, 1e-6, 5e-7, 1e-9);
  Engine engine;
  Machine machine(engine, torus, {.ranks = 16});
  std::vector<std::vector<double>> bufs(16, std::vector<double>(64, 0.0));
  bufs[3].assign(64, 4.5);
  auto program = [&](Comm comm) -> Task<void> {
    co_await hs::mpc::bcast(
        comm, 3,
        Buf(std::span<double>(bufs[static_cast<std::size_t>(comm.rank())])),
        hs::net::BcastAlgo::Binomial);
    co_await hs::mpc::reduce(comm, 0, ConstBuf::phantom(64),
                             Buf::phantom(64));
  };
  hs::mpc::run_spmd(machine, program);
  for (const auto& buf : bufs)
    for (double v : buf) ASSERT_EQ(v, 4.5);
}

TEST(Stress, ExceptionInsideOneRankAbortsRun) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 4});
  auto program = [&](Comm comm) -> Task<void> {
    if (comm.rank() == 2) throw std::runtime_error("injected fault");
    co_await hs::mpc::bcast(comm, 0, Buf::phantom(8),
                            hs::net::BcastAlgo::Binomial);
  };
  for (int r = 0; r < 4; ++r)
    engine.spawn(program(machine.world(r)), "rank " + std::to_string(r));
  EXPECT_THROW(engine.run(), std::runtime_error);
}

TEST(Stress, AbortedRealReduceTearsDownInDeclarationOrder) {
  // Ranks 0-2 sit suspended inside a real-payload reduce, staging buffers
  // live, when rank 3 throws. The engine is declared before the machine
  // (as in exec::run_sim_job), so the machine dies first and the engine
  // then destroys the suspended frames: nothing a frame frees on the way
  // out may point into the machine.
  const auto platform = hs::net::Platform::grid5000();
  Engine engine;
  Machine machine(engine, platform.make_network(), {.ranks = 4});
  std::vector<double> sum(8, 0.0);
  auto program = [&](Comm comm) -> Task<void> {
    if (comm.rank() == 3) {
      co_await engine.sleep(1.0);
      throw std::runtime_error("injected fault");
    }
    std::vector<double> mine(8, 1.0);
    co_await hs::mpc::reduce(
        comm, 0, std::span<const double>(mine),
        comm.rank() == 0 ? Buf(std::span<double>(sum)) : Buf{});
  };
  for (int r = 0; r < 4; ++r)
    engine.spawn(program(machine.world(r)), "rank " + std::to_string(r));
  EXPECT_THROW(engine.run(), std::runtime_error);
}

}  // namespace
