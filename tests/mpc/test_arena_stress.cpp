// Stress for the pooled machine state behind million-rank simulation:
// per-rank pending-op lists (pool-allocated, head-bump recycled), lazily
// materialized rank pages and inline-gate transfer awaitables
// (TransferOp / PostedOp) — the paths whose lifetimes ASan and TSan must
// bless. Build with -DHS_SANITIZE=address,undefined (or
// =thread) and run `ctest -L stress` to get the sanitized job; the
// patterns here are tuned to churn op storage across free/reuse cycles
// rather than to be big.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "mpc/collectives.hpp"

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

TEST(ArenaStress, PendingOpListsSurviveHeavyChurn) {
  // Every rank floods every other rank with out-of-order tagged traffic:
  // the receiver's pending lists grow, drain out of order (matching scans
  // from the head, removal compacts), and recycle through the pool many
  // times. Real payloads so a stale PendingOp pointer would corrupt data,
  // not just timing.
  constexpr int kRanks = 8;
  constexpr int kRounds = 40;
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = kRanks});
  std::vector<std::vector<double>> inbox(
      kRanks, std::vector<double>(kRanks * kRounds, -1.0));

  auto program = [&](Comm comm) -> Task<void> {
    const int me = comm.rank();
    std::vector<double> out(static_cast<std::size_t>(kRounds));
    for (int r = 0; r < kRounds; ++r)
      out[static_cast<std::size_t>(r)] = me * 1000 + r;
    // Post all sends up front (parked at each receiver), then receive
    // with the tag order reversed so nothing matches until the lists are
    // at their fullest. The deque never moves its pinned PostedOps.
    std::deque<hs::mpc::PostedOp> sends;
    for (int r = 0; r < kRounds; ++r)
      for (int peer = 0; peer < kRanks; ++peer) {
        if (peer == me) continue;
        sends.emplace_back(
            comm.machine(), me, peer, comm.context(), r,
            ConstBuf(std::span<const double>(
                &out[static_cast<std::size_t>(r)], 1)),
            Buf{}, /*is_send=*/true);
      }
    for (int r = kRounds - 1; r >= 0; --r)
      for (int peer = kRanks - 1; peer >= 0; --peer) {
        if (peer == me) continue;
        co_await comm.recv_op(
            peer,
            Buf(std::span<double>(
                &inbox[static_cast<std::size_t>(me)]
                      [static_cast<std::size_t>(peer * kRounds + r)],
                1)),
            r);
      }
    for (auto& send : sends) co_await send.wait();
  };
  hs::mpc::run_spmd(machine, program);

  for (int me = 0; me < kRanks; ++me)
    for (int peer = 0; peer < kRanks; ++peer) {
      if (peer == me) continue;
      for (int r = 0; r < kRounds; ++r)
        ASSERT_EQ(inbox[static_cast<std::size_t>(me)]
                       [static_cast<std::size_t>(peer * kRounds + r)],
                  peer * 1000 + r)
            << "me=" << me << " peer=" << peer << " round=" << r;
    }
}

TEST(ArenaStress, MixedTransferPrimitivesInterleave) {
  // TransferOp (post when awaited), PostedOp (posted-now/await-later, in
  // both orders against a TransferOp) and sendrecv all interleaved on one
  // communicator, driven by seeded randomness — the primitives share the
  // same pending lists and must compose in any order. Every rank draws
  // from the same sequence, so ring neighbors agree on each round's
  // primitive (and so payload size), SPMD-style.
  constexpr int kRanks = 6;
  constexpr int kRounds = 64;
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = kRanks});

  auto program = [&](Comm comm) -> Task<void> {
    const int me = comm.rank();
    const int right = (me + 1) % kRanks;
    const int left = (me + kRanks - 1) % kRanks;
    hs::Rng rng(0xa3e7aULL);
    for (int r = 0; r < kRounds; ++r) {
      switch (rng.uniform_int(3)) {
        case 0:
          co_await comm.sendrecv(right, ConstBuf::phantom(32), left,
                                 Buf::phantom(32), r, r);
          break;
        case 1: {
          hs::mpc::PostedOp send = comm.send_posted(
              right, ConstBuf::phantom(16), r);
          hs::mpc::PostedOp recv =
              comm.recv_posted(left, Buf::phantom(16), r);
          co_await recv.wait();
          co_await send.wait();
          break;
        }
        default: {
          hs::mpc::PostedOp recv = comm.recv_posted(left, Buf::phantom(8), r);
          co_await comm.send_op(right, ConstBuf::phantom(8), r);
          co_await recv.wait();
          break;
        }
      }
    }
  };
  hs::mpc::run_spmd(machine, program);
  EXPECT_GT(machine.messages_transferred(), 0u);
}

TEST(ArenaStress, LazyPagesUnderScatteredWorldTraffic) {
  // Sparse traffic over a multi-page world: ranks in distinct pages
  // exchange while most of the world stays phantom; page materialization
  // happens mid-run under ASan's eyes.
  const int ranks = 2 * Machine::kRankPageSize + 3;
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = ranks});
  const std::vector<int> actors{0, 1, Machine::kRankPageSize + 1,
                                2 * Machine::kRankPageSize + 2};
  for (std::size_t i = 0; i < actors.size(); ++i) {
    const int me = actors[i];
    const int next = actors[(i + 1) % actors.size()];
    const int prev = actors[(i + actors.size() - 1) % actors.size()];
    auto body = [](Comm comm, int to, int from) -> Task<void> {
      for (int r = 0; r < 8; ++r) {
        hs::mpc::PostedOp send =
            comm.send_posted(to, ConstBuf::phantom(64), r);
        co_await comm.recv_op(from, Buf::phantom(64), r);
        co_await send.wait();
      }
    };
    engine.spawn(body(machine.world(me), next, prev));
  }
  engine.run();
  EXPECT_EQ(machine.rank_page_count(), 3u);
  EXPECT_EQ(machine.rank_pages_materialized(), 3u);
  EXPECT_EQ(machine.messages_transferred(), 8u * actors.size());
}

}  // namespace
