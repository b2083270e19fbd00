// Lazy rank-state materialization must be invisible: for any workload, a
// machine that materializes rank pages on first touch and one that
// materializes everything up front (MachineConfig::eager_rank_state)
// produce bit-identical virtual times, wire counters, event counts and
// recorded wire/site spans. This is the property that lets million-rank
// simulations pay memory only for the ranks a phase actually touches.
//
// The first half is a randomized property test over grids, kernels,
// broadcast algorithms and seeds; the second half pins the memory side:
// a run that touches a rank subset materializes only those ranks' pages.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/kernel_registry.hpp"
#include "core/runner.hpp"
#include "mpc/collectives.hpp"
#include "trace/recorder.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::PayloadMode;
using hs::core::ProblemSpec;
using hs::core::RunOptions;
using hs::mpc::Buf;
using hs::mpc::Comm;
using hs::mpc::ConstBuf;
using hs::mpc::Machine;

struct Observed {
  double virtual_time = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t wire_bytes = 0;
  double total_time = 0.0;
  double max_comm_time = 0.0;
  std::string spans;  // hexfloat dump of the recorded wires and sites
};

Observed run_kernel(const RunOptions& options, int ranks, bool eager) {
  hs::desim::Engine engine;
  Machine machine(engine,
                  std::make_shared<hs::net::HockneyModel>(2e-5, 1.5e-9),
                  {.ranks = ranks,
                   .gamma_flop = 1e-10,
                   .eager_rank_state = eager});
  hs::trace::Recorder recorder;
  machine.set_recorder(&recorder);
  const auto result = hs::core::run(machine, options);

  Observed observed;
  observed.virtual_time = engine.now();
  observed.events = engine.events_processed();
  observed.messages = result.messages;
  observed.wire_bytes = result.wire_bytes;
  observed.total_time = result.timing.total_time;
  observed.max_comm_time = result.timing.max_comm_time;
  std::ostringstream dump;
  dump << std::hexfloat;
  for (const auto& w : recorder.wires())
    dump << "wire " << w.start << ' ' << w.end << ' ' << w.src << ' ' << w.dst
         << ' ' << w.bytes << ' ' << w.ctx << ' ' << w.tag << '\n';
  for (const auto& site : recorder.sites())
    dump << "site " << site.start << ' ' << site.end << ' '
         << hs::trace::to_string(site.op) << ' ' << site.ctx << ' '
         << site.seq << ' ' << site.root << ' ' << site.wire_bytes << ' '
         << site.members << '\n';
  observed.spans = dump.str();
  return observed;
}

void expect_identical(const Observed& lazy, const Observed& eager) {
  // Bit-exact equality throughout — lazy materialization may not perturb
  // the schedule by so much as one event.
  EXPECT_EQ(lazy.virtual_time, eager.virtual_time);
  EXPECT_EQ(lazy.events, eager.events);
  EXPECT_EQ(lazy.messages, eager.messages);
  EXPECT_EQ(lazy.wire_bytes, eager.wire_bytes);
  EXPECT_EQ(lazy.total_time, eager.total_time);
  EXPECT_EQ(lazy.max_comm_time, eager.max_comm_time);
  EXPECT_EQ(lazy.spans, eager.spans);
}

TEST(LazyRanks, RandomizedKernelRunsAreBitIdenticalToEager) {
  // Deterministically randomized matrix: grids x kernels x broadcast
  // algorithms x seeds drawn from a fixed-seed generator, so failures
  // reproduce exactly.
  const std::vector<hs::grid::GridShape> grids{{2, 2}, {4, 2}, {4, 4}};
  const std::vector<Algorithm> kernels{Algorithm::Summa, Algorithm::Hsumma,
                                       Algorithm::Cannon, Algorithm::Fox,
                                       Algorithm::Lu};
  const std::vector<hs::net::BcastAlgo> algos{
      hs::net::BcastAlgo::Binomial, hs::net::BcastAlgo::Flat,
      hs::net::BcastAlgo::ScatterRingAllgather};

  hs::Rng rng(0x1a23c0ffeeULL);
  for (int trial = 0; trial < 24; ++trial) {
    const auto& grid = grids[static_cast<std::size_t>(
        rng.uniform_int(grids.size()))];
    Algorithm algorithm =
        kernels[static_cast<std::size_t>(rng.uniform_int(kernels.size()))];
    const auto algo =
        algos[static_cast<std::size_t>(rng.uniform_int(algos.size()))];
    const auto& kernel = hs::core::kernel_descriptor(algorithm);
    if (grid.rows != grid.cols &&
        (kernel.factorization || algorithm == Algorithm::Cannon ||
         algorithm == Algorithm::Fox))
      algorithm = Algorithm::Summa;

    RunOptions options;
    options.algorithm = algorithm;
    options.grid = grid;
    options.problem = ProblemSpec::square(256, 16);
    options.mode = PayloadMode::Phantom;
    options.bcast_algo = algo;
    options.seed = 2013 + static_cast<std::uint64_t>(trial);
    if (algorithm == Algorithm::Hsumma) options.groups = {2, 1};
    if (hs::core::kernel_descriptor(algorithm).factorization) {
      options.row_levels = {2};
      options.col_levels = {2};
    }

    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 std::string(hs::core::kernel_descriptor(algorithm).name) +
                 " on " + std::to_string(grid.rows) + "x" +
                 std::to_string(grid.cols));
    expect_identical(run_kernel(options, grid.size(), /*eager=*/false),
                     run_kernel(options, grid.size(), /*eager=*/true));
  }
}

TEST(LazyRanks, RealPayloadRunIsBitIdenticalToEager) {
  // Real payloads route actual matrix blocks through the pending-op lists;
  // verification must agree too.
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = {2, 2};
  options.problem = ProblemSpec::square(64, 8);
  options.mode = PayloadMode::Real;
  options.verify = true;
  options.bcast_algo = hs::net::BcastAlgo::Binomial;
  expect_identical(run_kernel(options, 4, /*eager=*/false),
                   run_kernel(options, 4, /*eager=*/true));
}

TEST(LazyRanks, UntouchedPagesStayUnmaterialized) {
  // 3 pages of rank state; traffic confined to the first page must leave
  // the other two unmaterialized (and the eager machine materializes all).
  const int ranks = 3 * Machine::kRankPageSize;
  for (const bool eager : {false, true}) {
    hs::desim::Engine engine;
    Machine machine(engine,
                    std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9),
                    {.ranks = ranks, .eager_rank_state = eager});
    auto sender = [&](Comm comm) -> hs::desim::Task<void> {
      co_await comm.send(1, ConstBuf::phantom(64));
    };
    auto receiver = [&](Comm comm) -> hs::desim::Task<void> {
      co_await comm.recv(0, Buf::phantom(64));
    };
    engine.spawn(sender(machine.world(0)));
    engine.spawn(receiver(machine.world(1)));
    engine.run();
    EXPECT_EQ(machine.rank_page_count(), 3u);
    EXPECT_EQ(machine.rank_pages_materialized(), eager ? 3u : 1u);
  }
}

TEST(LazyRanks, PhantomRanksMaterializeOnFirstTouch) {
  // Touching one rank in the last page materializes exactly that page.
  const int ranks = 2 * Machine::kRankPageSize;
  hs::desim::Engine engine;
  Machine machine(engine,
                  std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9),
                  {.ranks = ranks});
  const int far = ranks - 1;
  auto sender = [&](Comm comm) -> hs::desim::Task<void> {
    co_await comm.send(far, ConstBuf::phantom(8));
  };
  auto receiver = [&](Comm comm) -> hs::desim::Task<void> {
    co_await comm.recv(0, Buf::phantom(8));
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(far)));
  engine.run();
  EXPECT_EQ(machine.rank_pages_materialized(), 2u);
  EXPECT_EQ(machine.messages_transferred(), 1u);
}

}  // namespace
