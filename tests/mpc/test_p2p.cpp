#include <gtest/gtest.h>

#include "net/topology.hpp"

#include <memory>
#include <numeric>
#include <vector>

#include "mpc/comm.hpp"

namespace {

using hs::desim::Engine;
using hs::desim::Task;
using hs::mpc::Buf;
using hs::mpc::Comm;
using hs::mpc::ConstBuf;
using hs::mpc::Machine;
using hs::mpc::PostedOp;

constexpr double kAlpha = 1e-4;
constexpr double kBeta = 1e-9;

std::shared_ptr<hs::net::HockneyModel> hockney() {
  return std::make_shared<hs::net::HockneyModel>(kAlpha, kBeta);
}

TEST(P2P, BlockingSendRecvMovesDataAndChargesHockney) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  std::vector<double> payload{1.0, 2.0, 3.0, 4.0};
  std::vector<double> received(4);

  auto sender = [&](Comm comm) -> Task<void> {
    co_await comm.send(1, std::span<const double>(payload));
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    co_await comm.recv(0, std::span<double>(received));
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(1)));
  engine.run();

  EXPECT_EQ(received, payload);
  EXPECT_DOUBLE_EQ(engine.now(), kAlpha + 32.0 * kBeta);
  EXPECT_EQ(machine.messages_transferred(), 1u);
  EXPECT_EQ(machine.bytes_transferred(), 32u);
}

TEST(P2P, TransferStartsWhenBothSidesPosted) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  double sender_done = 0.0, receiver_done = 0.0;

  auto sender = [&](Comm comm) -> Task<void> {
    co_await comm.send(1, ConstBuf::phantom(1000));
    sender_done = engine.now();
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    co_await engine.sleep(1.0);  // receiver late
    co_await comm.recv(0, Buf::phantom(1000));
    receiver_done = engine.now();
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(1)));
  engine.run();

  const double expected = 1.0 + kAlpha + 8000.0 * kBeta;
  EXPECT_DOUBLE_EQ(sender_done, expected);   // rendezvous: sender blocked too
  EXPECT_DOUBLE_EQ(receiver_done, expected);
}

TEST(P2P, SendPortSerializesConcurrentIsends) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 3});
  std::vector<double> done(3, 0.0);

  auto sender = [&](Comm comm) -> Task<void> {
    PostedOp r1 = comm.send_posted(1, ConstBuf::phantom(1000), 0);
    PostedOp r2 = comm.send_posted(2, ConstBuf::phantom(1000), 0);
    co_await r1.wait();
    co_await r2.wait();
    done[0] = engine.now();
  };
  auto receiver = [&](Comm comm, int src) -> Task<void> {
    co_await comm.recv(src, Buf::phantom(1000));
    done[static_cast<std::size_t>(comm.rank())] = engine.now();
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(1), 0));
  engine.spawn(receiver(machine.world(2), 0));
  engine.run();

  const double one = kAlpha + 8000.0 * kBeta;
  // Rank 0's single send port forces the two transfers back to back.
  EXPECT_DOUBLE_EQ(done[1], one);
  EXPECT_DOUBLE_EQ(done[2], 2.0 * one);
  EXPECT_DOUBLE_EQ(done[0], 2.0 * one);
}

TEST(P2P, RecvPortSerializesConcurrentSenders) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 3});

  auto sender = [&](Comm comm) -> Task<void> {
    co_await comm.send(2, ConstBuf::phantom(1000));
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    PostedOp a = comm.recv_posted(0, Buf::phantom(1000), 0);
    PostedOp b = comm.recv_posted(1, Buf::phantom(1000), 0);
    co_await a.wait();
    co_await b.wait();
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(sender(machine.world(1)));
  engine.spawn(receiver(machine.world(2)));
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 2.0 * (kAlpha + 8000.0 * kBeta));
}

TEST(P2P, DistinctPortsFullDuplex) {
  // A send and a receive at the same rank may overlap fully.
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  auto rank0 = [&](Comm comm) -> Task<void> {
    co_await comm.sendrecv(1, ConstBuf::phantom(1000), 1, Buf::phantom(1000));
  };
  auto rank1 = [&](Comm comm) -> Task<void> {
    co_await comm.sendrecv(0, ConstBuf::phantom(1000), 0, Buf::phantom(1000));
  };
  engine.spawn(rank0(machine.world(0)));
  engine.spawn(rank1(machine.world(1)));
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), kAlpha + 8000.0 * kBeta);  // not 2x
}

TEST(P2P, TagsKeepMessagesApart) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  std::vector<double> first{1.0}, second{2.0};
  double got_tag7 = 0.0, got_tag9 = 0.0;

  auto sender = [&](Comm comm) -> Task<void> {
    // Send tag 9 first, tag 7 second: matching must follow tags, not order.
    PostedOp r1 =
        comm.send_posted(1, std::span<const double>(second), /*tag=*/9);
    PostedOp r2 =
        comm.send_posted(1, std::span<const double>(first), /*tag=*/7);
    co_await r1.wait();
    co_await r2.wait();
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    std::vector<double> buf7(1), buf9(1);
    PostedOp r7 = comm.recv_posted(0, std::span<double>(buf7), /*tag=*/7);
    PostedOp r9 = comm.recv_posted(0, std::span<double>(buf9), /*tag=*/9);
    co_await r7.wait();
    co_await r9.wait();
    got_tag7 = buf7[0];
    got_tag9 = buf9[0];
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(1)));
  engine.run();
  EXPECT_EQ(got_tag7, 1.0);
  EXPECT_EQ(got_tag9, 2.0);
}

TEST(P2P, SameTagMatchesFifo) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  std::vector<double> results;

  auto sender = [&](Comm comm) -> Task<void> {
    std::vector<double> a{10.0}, b{20.0};
    co_await comm.send(1, std::span<const double>(a));
    co_await comm.send(1, std::span<const double>(b));
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    std::vector<double> buf(1);
    co_await comm.recv(0, std::span<double>(buf));
    results.push_back(buf[0]);
    co_await comm.recv(0, std::span<double>(buf));
    results.push_back(buf[0]);
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(1)));
  engine.run();
  EXPECT_EQ(results, (std::vector<double>{10.0, 20.0}));
}

TEST(P2P, SizeMismatchThrows) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  auto sender = [&](Comm comm) -> Task<void> {
    co_await comm.send(1, ConstBuf::phantom(10));
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    co_await comm.recv(0, Buf::phantom(11));
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(1)));
  EXPECT_THROW(engine.run(), hs::PreconditionError);
}

TEST(P2P, RealPhantomMixThrows) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  std::vector<double> data(10);
  auto sender = [&](Comm comm) -> Task<void> {
    co_await comm.send(1, std::span<const double>(data));
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    co_await comm.recv(0, Buf::phantom(10));
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(1)));
  EXPECT_THROW(engine.run(), hs::PreconditionError);
}

TEST(P2P, SelfSendRejected) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  auto proc = [&](Comm comm) -> Task<void> {
    co_await comm.send(0, ConstBuf::phantom(1));
  };
  engine.spawn(proc(machine.world(0)));
  EXPECT_THROW(engine.run(), hs::PreconditionError);
}

TEST(P2P, UnmatchedRecvDeadlocks) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  auto proc = [&](Comm comm) -> Task<void> {
    co_await comm.recv(1, Buf::phantom(4));
  };
  engine.spawn(proc(machine.world(0)), "lonely receiver");
  EXPECT_THROW(engine.run(), hs::desim::DeadlockError);
}

TEST(P2P, NegativeUserTagRejected) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  Comm world = machine.world(0);
  EXPECT_THROW(world.send(1, ConstBuf::phantom(1), -5),
               hs::PreconditionError);
  EXPECT_THROW(world.recv(1, Buf::phantom(1), -5), hs::PreconditionError);
}

TEST(P2P, ZeroByteMessageChargesLatency) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  auto sender = [&](Comm comm) -> Task<void> {
    co_await comm.send(1, ConstBuf{});
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    co_await comm.recv(0, Buf{});
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(1)));
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), kAlpha);
}

TEST(P2P, TopologyAwareCosting) {
  Engine engine;
  auto torus = std::make_shared<hs::net::Torus3DModel>(
      std::array<int, 3>{4, 4, 1}, 1, 1e-6, 1e-6, 1e-9);
  Machine machine(engine, torus, {.ranks = 16});
  auto sender = [&](Comm comm) -> Task<void> {
    co_await comm.send(5, ConstBuf::phantom(0));  // (0,0)->(1,1): 2 hops
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    co_await comm.recv(0, Buf::phantom(0));
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(5)));
  engine.run();
  EXPECT_DOUBLE_EQ(engine.now(), 1e-6 + 2.0 * 1e-6);
}

}  // namespace
