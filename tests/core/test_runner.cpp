#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/kernel_registry.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::PayloadMode;
using hs::core::ProblemSpec;
using hs::core::RunOptions;

hs::mpc::MachineConfig config_for(const RunOptions& options) {
  return {.ranks = options.grid.size() * options.layers, .gamma_flop = 1e-9};
}

TEST(Runner, RanksMustMatchGrid) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
      {.ranks = 4});
  RunOptions options;
  options.grid = {2, 4};
  options.problem = ProblemSpec::square(32, 4);
  EXPECT_THROW(hs::core::run(machine, options), hs::PreconditionError);
}

TEST(Runner, VerifyRequiresRealPayloads) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
      {.ranks = 4});
  RunOptions options;
  options.grid = {2, 2};
  options.problem = ProblemSpec::square(32, 4);
  options.mode = PayloadMode::Phantom;
  options.verify = true;
  EXPECT_THROW(hs::core::run(machine, options), hs::PreconditionError);
}

TEST(Runner, UnverifiedRunReportsMinusOne) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
      {.ranks = 4});
  RunOptions options;
  options.grid = {2, 2};
  options.problem = ProblemSpec::square(32, 4);
  const auto result = hs::core::run(machine, options);
  EXPECT_EQ(result.max_error, -1.0);
}

TEST(Runner, BackToBackRunsReportDeltas) {
  RunOptions options;
  options.grid = {2, 2};
  options.problem = ProblemSpec::square(64, 8);
  options.mode = PayloadMode::Phantom;

  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
      config_for(options));
  const auto first = hs::core::run(machine, options);
  const auto second = hs::core::run(machine, options);
  EXPECT_NEAR(first.timing.total_time, second.timing.total_time,
              first.timing.total_time * 1e-9);
  EXPECT_EQ(first.messages, second.messages);
  EXPECT_EQ(first.wire_bytes, second.wire_bytes);
}

TEST(Runner, SeedChangesInputsButNotTiming) {
  RunOptions options;
  options.grid = {2, 2};
  options.problem = ProblemSpec::square(32, 4);
  options.verify = true;

  hs::desim::Engine e1;
  hs::mpc::Machine m1(e1, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
                      config_for(options));
  options.seed = 1;
  const auto a = hs::core::run(m1, options);

  hs::desim::Engine e2;
  hs::mpc::Machine m2(e2, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
                      config_for(options));
  options.seed = 2;
  const auto b = hs::core::run(m2, options);

  EXPECT_DOUBLE_EQ(a.timing.total_time, b.timing.total_time);
  EXPECT_LT(a.max_error, 1e-12);
  EXPECT_LT(b.max_error, 1e-12);
}

TEST(Runner, StatsAreConsistent) {
  RunOptions options;
  options.grid = {2, 2};
  options.problem = ProblemSpec::square(64, 8);
  options.mode = PayloadMode::Phantom;

  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
      config_for(options));
  const auto result = hs::core::run(machine, options);
  EXPECT_GT(result.timing.total_time, 0.0);
  EXPECT_GE(result.timing.total_time, result.timing.max_comm_time);
  EXPECT_GE(result.timing.max_comm_time, result.timing.mean_comm_time);
  EXPECT_GE(result.timing.max_comp_time, result.timing.mean_comp_time);
  // Total flops across ranks = 2 n^3.
  EXPECT_DOUBLE_EQ(static_cast<double>(result.timing.total_flops),
                   2.0 * 64 * 64 * 64);
}

TEST(AlgorithmNames, RoundTrip) {
  // Exhaustive: every registered kernel (the registry test adds descriptor
  // identity; this guards the public to_string/from_string pair).
  for (const auto& kernel : hs::core::all_kernels())
    EXPECT_EQ(hs::core::algorithm_from_string(hs::core::to_string(kernel.kernel)),
              kernel.kernel);
  EXPECT_THROW(hs::core::algorithm_from_string("strassen"),
               hs::PreconditionError);
}

}  // namespace
