#include "trace/recorder.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "mpc/collectives.hpp"

namespace {

using hs::desim::Engine;
using hs::desim::Task;
using hs::mpc::Buf;
using hs::mpc::CollectiveMode;
using hs::mpc::Comm;
using hs::mpc::ConstBuf;
using hs::mpc::Machine;
using hs::trace::CollectiveOp;
using hs::trace::CollectiveSpan;
using hs::trace::CollectiveSpanGuard;
using hs::trace::ComputeSpanGuard;
using hs::trace::Phase;
using hs::trace::RankTracer;
using hs::trace::Recorder;

std::shared_ptr<hs::net::HockneyModel> hockney() {
  return std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9);
}

TEST(Recorder, SpanGuardBracketsVirtualInterval) {
  Engine engine;
  Recorder recorder;
  auto program = [&]() -> Task<void> {
    co_await engine.sleep(1.0);
    {
      CollectiveSpan span;
      span.rank = 3;
      span.op = CollectiveOp::Bcast;
      span.bytes = 64;
      CollectiveSpanGuard guard(&recorder, engine, span);
      co_await engine.sleep(2.5);
    }
  };
  engine.spawn(program());
  engine.run();
  ASSERT_EQ(recorder.collectives().size(), 1u);
  const auto& span = recorder.collectives()[0];
  EXPECT_DOUBLE_EQ(span.start, 1.0);
  EXPECT_DOUBLE_EQ(span.end, 3.5);
  EXPECT_EQ(span.rank, 3);
  EXPECT_EQ(span.bytes, 64u);
}

TEST(Recorder, StepStateStampsSubsequentSpans) {
  Engine engine;
  Recorder recorder;
  RankTracer tracer(&recorder, 2);
  auto program = [&]() -> Task<void> {
    tracer.begin_step(engine, 7, Phase::Outer);
    {
      CollectiveSpan span;
      span.rank = 2;
      CollectiveSpanGuard guard(&recorder, engine, span);
      co_await engine.sleep(1.0);
    }
    tracer.begin_step(engine, 8, Phase::Inner);
    {
      ComputeSpanGuard guard(tracer, engine, 99.0);
      co_await engine.sleep(0.5);
    }
  };
  engine.spawn(program());
  engine.run();

  ASSERT_EQ(recorder.steps().size(), 2u);
  EXPECT_EQ(recorder.steps()[0].step, 7);
  EXPECT_EQ(recorder.steps()[0].phase, Phase::Outer);
  ASSERT_EQ(recorder.collectives().size(), 1u);
  EXPECT_EQ(recorder.collectives()[0].step, 7);
  EXPECT_EQ(recorder.collectives()[0].phase, Phase::Outer);
  ASSERT_EQ(recorder.computes().size(), 1u);
  EXPECT_EQ(recorder.computes()[0].step, 8);
  EXPECT_EQ(recorder.computes()[0].phase, Phase::Inner);
  EXPECT_DOUBLE_EQ(recorder.computes()[0].flops, 99.0);
}

TEST(Recorder, DetachedGuardsAreNoOps) {
  Engine engine;
  RankTracer detached;  // no recorder
  auto program = [&]() -> Task<void> {
    detached.begin_step(engine, 0, Phase::Flat);
    CollectiveSpanGuard guard(nullptr, engine, CollectiveSpan{});
    ComputeSpanGuard compute(detached, engine, 1.0);
    co_await engine.sleep(1.0);
  };
  engine.spawn(program());
  engine.run();  // must not crash; nothing to observe
}

TEST(Recorder, RankCountSpansAllEventKinds) {
  Recorder recorder;
  EXPECT_EQ(recorder.rank_count(), 0);
  EXPECT_TRUE(recorder.empty());
  recorder.add_transfer({0.0, 1.0, /*src=*/4, /*dst=*/9, 8, 0, 0});
  CollectiveSpan span;
  span.rank = 2;
  recorder.add_collective(span);
  EXPECT_EQ(recorder.rank_count(), 10);  // dst 9 is the highest rank seen
  EXPECT_FALSE(recorder.empty());
  recorder.clear();
  EXPECT_TRUE(recorder.empty());
  EXPECT_EQ(recorder.rank_count(), 0);
}

TEST(Recorder, MachineRecordsCollectiveSpansPerRank) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 4});
  Recorder recorder;
  machine.set_recorder(&recorder);
  EXPECT_EQ(machine.recorder(), &recorder);

  auto program = [&](Comm comm) -> Task<void> {
    co_await hs::mpc::bcast(comm, 0, Buf::phantom(256),
                            hs::net::BcastAlgo::Binomial);
  };
  hs::mpc::run_spmd(machine, program);

  // One span per participating rank, all agreeing on identity fields.
  ASSERT_EQ(recorder.collectives().size(), 4u);
  for (const auto& span : recorder.collectives()) {
    EXPECT_EQ(span.op, CollectiveOp::Bcast);
    EXPECT_EQ(span.root, 0);
    EXPECT_EQ(span.bytes, 256u * 8u);
    EXPECT_EQ(span.algo, static_cast<int>(hs::net::BcastAlgo::Binomial));
    EXPECT_FALSE(span.closed_form);
    EXPECT_GE(span.end, span.start);
  }
  // Point-to-point mode also records the tree's wire transfers.
  EXPECT_EQ(recorder.wires().size(), 3u);
  EXPECT_TRUE(recorder.sites().empty());
}

TEST(Recorder, ClosedFormSitesBecomeSiteSpans) {
  Engine engine;
  Machine machine(engine, hockney(),
                  {.ranks = 4, .collective_mode = CollectiveMode::ClosedForm});
  Recorder recorder;
  machine.set_recorder(&recorder);

  auto program = [&](Comm comm) -> Task<void> {
    co_await hs::mpc::bcast(comm, 1, Buf::phantom(128));
    co_await hs::mpc::reduce(comm, 2, ConstBuf::phantom(16),
                             Buf::phantom(16));
  };
  hs::mpc::run_spmd(machine, program);

  // No point-to-point traffic in this mode; each collective leaves one
  // synthetic site span instead.
  EXPECT_TRUE(recorder.wires().empty());
  ASSERT_EQ(recorder.sites().size(), 2u);
  const auto& site = recorder.sites()[0];
  EXPECT_EQ(site.op, CollectiveOp::Bcast);
  EXPECT_EQ(site.root, 1);
  EXPECT_EQ(site.members, 4);
  EXPECT_EQ(site.wire_bytes, 128u * 8u * 3u);  // (p-1) * bytes convention
  EXPECT_GE(site.end, site.start);
  EXPECT_EQ(recorder.sites()[1].op, CollectiveOp::Reduce);
  EXPECT_EQ(recorder.sites()[1].root, 2);
  // Per-rank call spans are recorded in both modes.
  EXPECT_EQ(recorder.collectives().size(), 8u);
  for (const auto& span : recorder.collectives())
    EXPECT_TRUE(span.closed_form);
}

TEST(Recorder, SetRecorderRestoresAndDetaches) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  Recorder recorder;
  machine.set_recorder(&recorder);
  machine.set_recorder(nullptr);
  auto program = [&](Comm comm) -> Task<void> {
    co_await hs::mpc::bcast(comm, 0, Buf::phantom(8));
  };
  hs::mpc::run_spmd(machine, program);
  EXPECT_TRUE(recorder.empty());
}

TEST(Recorder, ClosedFormSitesLeaveSyntheticRecords) {
  // ClosedForm collectives move no point-to-point messages; each site
  // leaves one record spanning [last entry, completion] instead.
  Engine engine;
  Machine machine(engine, hockney(),
                  {.ranks = 8, .collective_mode = CollectiveMode::ClosedForm});
  Recorder recorder;
  machine.set_recorder(&recorder);
  auto program = [&](Comm comm) -> Task<void> {
    co_await hs::mpc::bcast(comm, 2, Buf::phantom(64));
    co_await hs::mpc::reduce(comm, 5, ConstBuf::phantom(16),
                             Buf::phantom(16));
  };
  hs::mpc::run_spmd(machine, program);

  ASSERT_EQ(recorder.sites().size(), 2u);
  const auto& bcast = recorder.sites()[0];
  EXPECT_EQ(bcast.root, 2);  // root as world rank
  EXPECT_EQ(bcast.wire_bytes, 64u * 8u * 7u);  // (p-1) * payload convention
  EXPECT_GT(bcast.end, bcast.start);
  const auto& reduce = recorder.sites()[1];
  EXPECT_EQ(reduce.root, 5);
  EXPECT_EQ(reduce.wire_bytes, 16u * 8u * 7u);
  EXPECT_NE(reduce.op, bcast.op);  // kinds stay distinguishable
  EXPECT_GE(reduce.start, bcast.end);  // sites follow program order
}

TEST(Recorder, ClearEmptiesTheWireLog) {
  Recorder recorder;
  recorder.add_transfer({});
  recorder.add_site({});
  recorder.clear();
  EXPECT_TRUE(recorder.wires().empty());
  EXPECT_TRUE(recorder.sites().empty());
}

TEST(Recorder, DetachStopsRecording) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  Recorder recorder;
  machine.set_recorder(&recorder);
  machine.set_recorder(nullptr);
  auto sender = [&](Comm comm) -> Task<void> {
    co_await comm.send(1, ConstBuf::phantom(8));
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    co_await comm.recv(0, Buf::phantom(8));
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(1)));
  engine.run();
  EXPECT_TRUE(recorder.wires().empty());
}

TEST(Recorder, WiresRecordEveryPointToPointTransfer) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2});
  Recorder recorder;
  machine.set_recorder(&recorder);

  auto sender = [&](Comm comm) -> Task<void> {
    co_await comm.send(1, ConstBuf::phantom(100), /*tag=*/7);
    co_await comm.send(1, ConstBuf::phantom(200), /*tag=*/8);
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    co_await comm.recv(0, Buf::phantom(100), 7);
    co_await comm.recv(0, Buf::phantom(200), 8);
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(1)));
  engine.run();

  ASSERT_EQ(recorder.wires().size(), 2u);
  const auto& first = recorder.wires()[0];
  EXPECT_EQ(first.src, 0);
  EXPECT_EQ(first.dst, 1);
  EXPECT_EQ(first.bytes, 800u);
  EXPECT_EQ(first.tag, 7);
  EXPECT_DOUBLE_EQ(first.start, 0.0);
  EXPECT_DOUBLE_EQ(first.end, 1e-5 + 800.0 * 1e-9);
  const auto& second = recorder.wires()[1];
  EXPECT_EQ(second.tag, 8);
  EXPECT_GE(second.start, first.end);  // serialized on the same ports
}

TEST(Recorder, WiresCaptureBroadcastTreeStructure) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 8});
  Recorder recorder;
  machine.set_recorder(&recorder);
  auto program = [&](Comm comm) -> Task<void> {
    co_await hs::mpc::bcast(comm, 0, Buf::phantom(64),
                            hs::net::BcastAlgo::Binomial);
  };
  hs::mpc::run_spmd(machine, program);
  // Binomial tree over 8 ranks: exactly 7 transfers.
  EXPECT_EQ(recorder.wires().size(), 7u);
  // All transfers originate at earlier tree levels: first is from rank 0.
  EXPECT_EQ(recorder.wires()[0].src, 0);
}

}  // namespace
