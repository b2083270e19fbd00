// Closed-form mode for reduce, and the payload contract of closed-form
// sites: timing equals the closed forms, data semantics match the
// point-to-point implementations, and a site rejects exactly the buffers
// a routed transfer would.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "mpc/collectives.hpp"

namespace {

using hs::desim::Engine;
using hs::desim::Task;
using hs::mpc::Buf;
using hs::mpc::CollectiveMode;
using hs::mpc::Comm;
using hs::mpc::ConstBuf;
using hs::mpc::Machine;

constexpr double kAlpha = 1e-4;
constexpr double kBeta = 1e-9;

std::shared_ptr<hs::net::HockneyModel> hockney() {
  return std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta);
}

template <typename Program>
double run_closed(int ranks, Program&& program) {
  Engine engine;
  Machine machine(engine, hockney(),
                  {.ranks = ranks, .collective_mode = CollectiveMode::ClosedForm});
  return hs::mpc::run_spmd(machine, program);
}

TEST(ClosedFormData, ReduceSumsToRoot) {
  constexpr int kRanks = 8;
  constexpr std::size_t kCount = 64;
  std::vector<double> result(kCount, -1.0);
  const double t = run_closed(kRanks, [&](Comm comm) -> Task<void> {
    std::vector<double> mine(kCount, static_cast<double>(comm.rank() + 1));
    co_await hs::mpc::reduce(comm, 3, std::span<const double>(mine),
                             comm.rank() == 3 ? Buf(std::span<double>(result))
                                              : Buf{});
  });
  for (double v : result) EXPECT_DOUBLE_EQ(v, 36.0);  // 1+...+8
  EXPECT_DOUBLE_EQ(t,
                   hs::net::reduce_time(kRanks, kCount * 8, kAlpha, kBeta));
}

TEST(ClosedFormData, PhantomPayloadsChargeTimeOnly) {
  constexpr int kRanks = 16;
  const double t = run_closed(kRanks, [&](Comm comm) -> Task<void> {
    co_await hs::mpc::reduce(comm, 0, ConstBuf::phantom(1024),
                             Buf::phantom(1024));
    co_await hs::mpc::bcast(comm, 5, Buf::phantom(64),
                            hs::net::BcastAlgo::ScatterRingAllgather);
  });
  EXPECT_DOUBLE_EQ(t,
                   hs::net::reduce_time(kRanks, 1024 * 8, kAlpha, kBeta) +
                       hs::net::bcast_time(
                           hs::net::BcastAlgo::ScatterRingAllgather, kRanks,
                           64 * 8, kAlpha, kBeta));
}

TEST(ClosedFormData, WireAccountingMatchesBinomialPointToPoint) {
  // The (p-1)*bytes convention: a closed-form collective charges exactly
  // the messages/bytes a binomial tree moves, so the machine counters stay
  // comparable between the two modes for tree-shaped collectives.
  constexpr int kRanks = 8;
  constexpr std::size_t kCount = 128;
  auto program = [](Comm comm) -> Task<void> {
    co_await hs::mpc::bcast(comm, 0, Buf::phantom(kCount),
                            hs::net::BcastAlgo::Binomial);
    co_await hs::mpc::reduce(comm, 0, ConstBuf::phantom(kCount),
                             Buf::phantom(kCount));
  };

  Engine p2p_engine;
  Machine p2p(p2p_engine, hockney(),
              {.ranks = kRanks,
               .collective_mode = CollectiveMode::PointToPoint});
  hs::mpc::run_spmd(p2p, program);

  Engine closed_engine;
  Machine closed(closed_engine, hockney(),
                 {.ranks = kRanks,
                  .collective_mode = CollectiveMode::ClosedForm});
  hs::mpc::run_spmd(closed, program);

  EXPECT_EQ(p2p.messages_transferred(), closed.messages_transferred());
  EXPECT_EQ(p2p.bytes_transferred(), closed.bytes_transferred());
  EXPECT_EQ(closed.messages_transferred(), 2u * (kRanks - 1));
  EXPECT_EQ(closed.bytes_transferred(), 2u * (kRanks - 1) * kCount * 8u);
}

TEST(ClosedFormData, Summa25DRunsAtScaleInClosedForm) {
  // The 2.5D baseline needs reduce in closed form; run it at a scale that
  // would be slow with routed messages.
  Engine engine;
  Machine machine(engine, hockney(),
                  {.ranks = 256,
                   .collective_mode = CollectiveMode::ClosedForm,
                   .gamma_flop = 1e-10});
  hs::core::RunOptions options;
  options.algorithm = hs::core::Algorithm::Summa25D;
  options.grid = {8, 8};
  options.layers = 4;
  options.problem = hs::core::ProblemSpec::square(2048, 64);
  options.mode = hs::core::PayloadMode::Phantom;
  const auto result = hs::core::run(machine, options);
  EXPECT_GT(result.timing.max_comm_time, 0.0);
  EXPECT_GT(result.messages, 0u);
}

// ---- the payload contract, in both modes --------------------------------

// Runs `program` on every rank and returns the PreconditionError message
// the run ends with ("" when it completes).
std::string run_error(CollectiveMode mode, int ranks,
                      const std::function<Task<void>(Comm)>& program) {
  Engine engine;
  Machine machine(engine, hockney(),
                  {.ranks = ranks, .collective_mode = mode});
  try {
    hs::mpc::run_spmd(machine, program);
  } catch (const hs::PreconditionError& error) {
    return error.what();
  }
  return "";
}

constexpr CollectiveMode kModes[] = {CollectiveMode::PointToPoint,
                                     CollectiveMode::ClosedForm};

const char* mode_name(CollectiveMode mode) {
  return mode == CollectiveMode::ClosedForm ? "closed-form" : "point-to-point";
}

TEST(ClosedFormData, BcastRejectsShortReceiveBuffer) {
  // The root sends 8 elements; the receiver's 4-element span sits inside a
  // larger vector, so an unchecked copy would overwrite the guard after it.
  for (const CollectiveMode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    std::vector<double> root_data(8, 3.0);
    std::vector<double> receiver(8, -1.0);
    const std::string error = run_error(mode, 2, [&](Comm comm) -> Task<void> {
      Buf buf = comm.rank() == 0 ? Buf(std::span<double>(root_data))
                                 : Buf(std::span<double>(receiver.data(), 4));
      co_await hs::mpc::bcast(comm, 0, buf, hs::net::BcastAlgo::Binomial);
    });
    EXPECT_NE(error.find("send/recv size mismatch: 8 vs 4 elements"),
              std::string::npos)
        << error;
    EXPECT_EQ(receiver[4], -1.0);
  }
}

TEST(ClosedFormData, ReduceRejectsUnequalContributions) {
  for (const CollectiveMode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    std::vector<double> result(8, 0.0);
    const std::string error = run_error(mode, 2, [&](Comm comm) -> Task<void> {
      std::vector<double> mine(comm.rank() == 0 ? 4 : 8, 1.0);
      co_await hs::mpc::reduce(
          comm, 0, std::span<const double>(mine),
          comm.rank() == 0 ? Buf(std::span<double>(result.data(), 4)) : Buf{});
    });
    EXPECT_NE(error.find("send/recv size mismatch"), std::string::npos)
        << error;
  }
}

TEST(ClosedFormData, SitesRejectRealPhantomMix) {
  for (const CollectiveMode mode : kModes) {
    SCOPED_TRACE(mode_name(mode));
    std::vector<double> data(4, 1.0);
    const std::string bcast_error =
        run_error(mode, 2, [&](Comm comm) -> Task<void> {
          Buf buf = comm.rank() == 0 ? Buf(std::span<double>(data))
                                     : Buf::phantom(4);
          co_await hs::mpc::bcast(comm, 0, buf, hs::net::BcastAlgo::Binomial);
        });
    EXPECT_NE(bcast_error.find("mixing real and phantom payloads"),
              std::string::npos)
        << bcast_error;
    const std::string reduce_error =
        run_error(mode, 2, [&](Comm comm) -> Task<void> {
          std::vector<double> mine(4, 1.0);
          ConstBuf send = comm.rank() == 0
                              ? ConstBuf(std::span<const double>(mine))
                              : ConstBuf::phantom(4);
          co_await hs::mpc::reduce(
              comm, 0, send,
              comm.rank() == 0 ? Buf(std::span<double>(data)) : Buf{});
        });
    EXPECT_NE(reduce_error.find("mixing real and phantom payloads"),
              std::string::npos)
        << reduce_error;
  }
}

}  // namespace
