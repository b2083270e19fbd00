#include "core/runner.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

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

// A shape that violates a kernel precondition fails in the registry's
// validation hook with the kernel's message, before any rank spawns: the
// engine has processed no event. One case per kernel.
TEST(Runner, ShapeChecksFailBeforeAnyRankSpawns) {
  struct Case {
    const char* name;
    RunOptions options;
    std::string message;
  };
  const auto options_for = [](Algorithm algorithm, hs::grid::GridShape grid,
                              ProblemSpec problem) {
    RunOptions options;
    options.algorithm = algorithm;
    options.grid = grid;
    options.problem = problem;
    options.mode = PayloadMode::Phantom;
    return options;
  };
  RunOptions hsumma =
      options_for(Algorithm::Hsumma, {2, 4}, ProblemSpec::square(32, 4));
  hsumma.groups = {3, 2};
  RunOptions multilevel = options_for(Algorithm::HsummaMultilevel, {2, 4},
                                      ProblemSpec::square(32, 4));
  multilevel.row_levels = {3};
  RunOptions summa25d =
      options_for(Algorithm::Summa25D, {2, 2}, ProblemSpec::square(32, 4));
  summa25d.layers = 3;
  RunOptions hsumma_cyclic = options_for(Algorithm::HsummaCyclic, {4, 4},
                                         ProblemSpec::square(96, 8));
  hsumma_cyclic.groups = {3, 2};
  const std::vector<Case> cases = {
      {"summa: k=24 is not a multiple of t*b=16",
       options_for(Algorithm::Summa, {2, 4}, ProblemSpec{32, 24, 32, 4, 0}),
       "k=24 must be divisible by t*b = 16"},
      {"hsumma: 3x2 groups on a 2x4 grid", hsumma,
       "group arrangement 3x2 must divide the process grid"},
      {"hsumma-multilevel: factor 3 on 4 grid columns", multilevel,
       "hier_bcast level factor 3 must divide group size 4"},
      {"summa-cyclic: k=30 is not a multiple of b=4",
       options_for(Algorithm::SummaCyclic, {2, 4},
                   ProblemSpec{32, 30, 32, 4, 0}),
       "k=30 must be a multiple of the distribution block 4"},
      {"hsumma-cyclic: B=6 is not a multiple of b=4",
       options_for(Algorithm::HsummaCyclic, {2, 4},
                   ProblemSpec::square(48, 4, 6)),
       "outer block B=6 must be a multiple of inner block b=4"},
      {"hsumma-cyclic: 3x2 groups on a 4x4 grid", hsumma_cyclic,
       "group arrangement 3x2 must divide the process grid"},
      {"cannon: 2x4 grid",
       options_for(Algorithm::Cannon, {2, 4}, ProblemSpec::square(32, 4)),
       "Cannon requires a square process grid, got 2x4"},
      {"fox: 2x4 grid",
       options_for(Algorithm::Fox, {2, 4}, ProblemSpec::square(32, 4)),
       "Fox requires a square process grid"},
      {"summa-2.5d: 8 pivot steps on 3 layers", summa25d,
       "pivot step count 8 must be divisible by layers 3"},
      {"lu: n=30 on a 2x4 grid",
       options_for(Algorithm::Lu, {2, 4}, ProblemSpec::factorization(30, 2)),
       "n=30 must be divisible by both grid dimensions"},
      {"cholesky: 2x4 grid",
       options_for(Algorithm::Cholesky, {2, 4},
                   ProblemSpec::factorization(32, 4)),
       "Cholesky requires a square process grid"},
      // b = 0 reaches no validate hook: cannon's used to fail inside the
      // block-cyclic distribution, summa-2.5d's divided by it.
      {"cannon: b=0",
       options_for(Algorithm::Cannon, {2, 2}, ProblemSpec::square(32, 0)),
       "problem dimensions must be positive"},
      {"summa-2.5d: b=0",
       options_for(Algorithm::Summa25D, {2, 2}, ProblemSpec::square(32, 0)),
       "problem dimensions must be positive"},
  };
  for (const Case& c : cases) {
    hs::desim::Engine engine;
    hs::mpc::Machine machine(
        engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
        {.ranks = c.options.grid.size() * c.options.layers});
    try {
      hs::core::run(machine, c.options);
      ADD_FAILURE() << c.name << ": no error";
    } catch (const hs::PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find(c.message), std::string::npos)
          << c.name << ": " << error.what();
    }
    EXPECT_EQ(machine.engine().events_processed(), 0u) << c.name;
  }
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
