// Machine-level straggler semantics: plan hooks on compute and transfer
// charges, and the zero-perturbation golden.
#include <gtest/gtest.h>

#include <memory>

#include "exec/sim_job.hpp"
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

TEST(FaultMachine, StragglerStretchesComputeCharge) {
  Engine engine;
  Machine machine(engine, hockney(), {.ranks = 2, .gamma_flop = 1e-9});
  FaultPlan plan;
  plan.slowdowns.push_back({0, 0.0, kForever, 4.0});
  machine.set_faults(&plan);

  double slow_done = 0.0, fast_done = 0.0;
  auto worker = [&](Comm comm, double* done) -> Task<void> {
    co_await machine.compute(comm.rank(), 1e6);
    *done = engine.now();
  };
  engine.spawn(worker(machine.world(0), &slow_done));
  engine.spawn(worker(machine.world(1), &fast_done));
  engine.run();
  EXPECT_DOUBLE_EQ(fast_done, 1e-3);
  EXPECT_DOUBLE_EQ(slow_done, 4e-3);
}

TEST(FaultMachine, StragglerStretchesWireOccupancy) {
  Engine engine;
  Machine machine(engine, hockney(),
                  {.ranks = 2,
                   .collective_mode = hs::mpc::CollectiveMode::PointToPoint});
  FaultPlan plan;
  plan.slowdowns.push_back({1, 0.0, kForever, 2.0});
  machine.set_faults(&plan);

  auto sender = [&](Comm comm) -> Task<void> {
    co_await comm.send(1, ConstBuf::phantom(1000));
  };
  auto receiver = [&](Comm comm) -> Task<void> {
    co_await comm.recv(0, Buf::phantom(1000));
  };
  engine.spawn(sender(machine.world(0)));
  engine.spawn(receiver(machine.world(1)));
  engine.run();
  // The receiving straggler doubles the whole transfer time.
  EXPECT_DOUBLE_EQ(engine.now(), 2.0 * (kAlpha + 8000.0 * kBeta));
}

// The golden: an empty (or null) fault plan is indistinguishable from no
// fault support at all — every RunResult field is bit-identical.
TEST(FaultMachine, EmptyPlanIsZeroPerturbation) {
  hs::exec::SimJob job;
  job.platform.alpha = kAlpha;
  job.platform.beta = kBeta;
  job.gamma_flop = 1e-11;
  job.ranks = 16;
  job.groups = 4;
  job.problem = hs::core::ProblemSpec::square(256, 64);
  job.collective_mode = hs::mpc::CollectiveMode::PointToPoint;
  const hs::core::RunResult clean = hs::exec::run_sim_job(job);

  job.faults = std::make_shared<const FaultPlan>();  // empty plan
  const hs::core::RunResult with_empty = hs::exec::run_sim_job(job);

  EXPECT_EQ(clean.timing.total_time, with_empty.timing.total_time);
  EXPECT_EQ(clean.timing.max_comm_time, with_empty.timing.max_comm_time);
  EXPECT_EQ(clean.timing.max_comp_time, with_empty.timing.max_comp_time);
  EXPECT_EQ(clean.timing.mean_comm_time, with_empty.timing.mean_comm_time);
  EXPECT_EQ(clean.timing.mean_comp_time, with_empty.timing.mean_comp_time);
  EXPECT_EQ(clean.timing.max_level_comm_time,
            with_empty.timing.max_level_comm_time);
  EXPECT_EQ(clean.timing.total_flops, with_empty.timing.total_flops);
  EXPECT_EQ(clean.messages, with_empty.messages);
  EXPECT_EQ(clean.wire_bytes, with_empty.wire_bytes);
}

}  // namespace
