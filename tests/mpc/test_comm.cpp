#include "mpc/comm.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mpc/collectives.hpp"

namespace {

using hs::desim::Engine;
using hs::desim::Task;
using hs::mpc::Buf;
using hs::mpc::Comm;
using hs::mpc::ConstBuf;
using hs::mpc::Machine;

std::shared_ptr<hs::net::HockneyModel> hockney() {
  return std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9);
}

TEST(Comm, WorldHasAllRanks) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 6});
  Comm world = machine.world(3);
  EXPECT_EQ(world.size(), 6);
  EXPECT_EQ(world.rank(), 3);
  EXPECT_EQ(world.my_world_rank(), 3);
  for (int r = 0; r < 6; ++r) EXPECT_EQ(world.world_rank(r), r);
}

TEST(Comm, WorldRankOutOfRangeThrows) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  EXPECT_THROW(machine.world(2), hs::PreconditionError);
  EXPECT_THROW(machine.world(-1), hs::PreconditionError);
}

TEST(Comm, SubRenumbersRanks) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 8});
  Comm world = machine.world(5);
  Comm sub = world.sub({1, 5, 7});
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.rank(), 1);
  EXPECT_EQ(sub.world_rank(0), 1);
  EXPECT_EQ(sub.world_rank(2), 7);
}

TEST(Comm, SubRequiresMembership) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 8});
  Comm world = machine.world(0);
  EXPECT_THROW(world.sub({1, 2, 3}), hs::PreconditionError);
}

TEST(Comm, SubOfSubComposesWorldRanks) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 8});
  Comm world = machine.world(6);
  Comm sub = world.sub({0, 2, 4, 6});   // my rank there: 3
  Comm subsub = sub.sub({1, 3});        // my rank there: 1
  EXPECT_EQ(subsub.size(), 2);
  EXPECT_EQ(subsub.rank(), 1);
  EXPECT_EQ(subsub.world_rank(0), 2);
  EXPECT_EQ(subsub.world_rank(1), 6);
}

TEST(Comm, SameMembershipSharesContext) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 4});
  Comm a = machine.world(0).sub({0, 1});
  Comm b = machine.world(1).sub({0, 1});
  EXPECT_EQ(a.context(), b.context());
}

TEST(Comm, DifferentMembershipsGetDifferentContexts) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 4});
  Comm a = machine.world(1).sub({0, 1});
  Comm b = machine.world(1).sub({1, 2});
  EXPECT_NE(a.context(), b.context());
  // Same set, different order: also a different communicator.
  Comm c = machine.world(1).sub({1, 0});
  EXPECT_NE(a.context(), c.context());
}

TEST(Comm, MessagesDoNotCrossCommunicators) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 4});
  // Rank 0 sends to rank 1 on the world communicator AND on a sub
  // communicator with the same tag; matching must respect contexts.
  std::vector<double> world_data{1.0}, sub_data{2.0};
  std::vector<double> got_world(1), got_sub(1);

  auto rank0 = [&](Comm world) -> Task<void> {
    Comm sub = world.sub({0, 1});
    hs::mpc::PostedOp world_send =
        world.send_posted(1, std::span<const double>(world_data), /*tag=*/5);
    hs::mpc::PostedOp sub_send =
        sub.send_posted(1, std::span<const double>(sub_data), /*tag=*/5);
    co_await world_send.wait();
    co_await sub_send.wait();
  };
  auto rank1 = [&](Comm world) -> Task<void> {
    Comm sub = world.sub({0, 1});
    // Post the sub receive first: if contexts leaked it would steal the
    // world message (FIFO on the pair).
    hs::mpc::PostedOp sub_recv =
        sub.recv_posted(0, std::span<double>(got_sub), /*tag=*/5);
    hs::mpc::PostedOp world_recv =
        world.recv_posted(0, std::span<double>(got_world), /*tag=*/5);
    co_await sub_recv.wait();
    co_await world_recv.wait();
  };
  engine.spawn(rank0(machine.world(0)));
  engine.spawn(rank1(machine.world(1)));
  engine.run();
  EXPECT_EQ(got_world[0], 1.0);
  EXPECT_EQ(got_sub[0], 2.0);
}

TEST(Comm, CollectiveOnSubCommunicatorOnly) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 6});
  std::vector<std::vector<double>> bufs(6, std::vector<double>(4, 0.0));
  bufs[2].assign(4, 7.0);  // world rank 2 == sub rank 1 is the root

  auto program = [&](Comm world) -> Task<void> {
    if (world.rank() % 2 == 0) {
      Comm sub = world.sub({0, 2, 4});
      co_await hs::mpc::bcast(
          sub, 1,
          Buf(std::span<double>(bufs[static_cast<std::size_t>(world.rank())])),
          hs::net::BcastAlgo::Binomial);
    }
  };
  hs::mpc::run_spmd(machine, program);
  EXPECT_EQ(bufs[0][0], 7.0);
  EXPECT_EQ(bufs[4][0], 7.0);
  EXPECT_EQ(bufs[1][0], 0.0);  // non-members untouched
  EXPECT_EQ(bufs[3][0], 0.0);
}

TEST(Comm, InvalidCommThrowsOnUse) {
  Comm comm;
  EXPECT_FALSE(comm.valid());
  EXPECT_THROW(comm.machine(), hs::PreconditionError);
}

}  // namespace
