// Communication/computation overlap — the paper's "until now we got all
// these improvements without overlapping the communications" future work.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/runner.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::PayloadMode;
using hs::core::ProblemSpec;
using hs::core::RunOptions;

hs::core::RunResult run_once(const RunOptions& options, double gamma,
                             double alpha = 1e-4, double beta = 1e-9) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(alpha, beta),
      {.ranks = options.grid.size(), .gamma_flop = gamma});
  return hs::core::run(machine, options);
}

TEST(Overlap, SummaStaysNumericallyCorrect) {
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = {2, 4};
  options.problem = ProblemSpec::square(96, 8);
  options.lookahead = 1;
  options.verify = true;
  EXPECT_LT(run_once(options, 1e-9).max_error, 1e-12);
}

TEST(Overlap, HsummaStaysNumericallyCorrect) {
  RunOptions options;
  options.algorithm = Algorithm::Hsumma;
  options.grid = {4, 4};
  options.groups = {2, 2};
  options.problem = ProblemSpec::square(96, 4);
  options.problem.outer_block = 12;
  options.lookahead = 1;
  options.verify = true;
  EXPECT_LT(run_once(options, 1e-9).max_error, 1e-12);
}

TEST(Overlap, HidesCommunicationBehindCompute) {
  // Compute per step >> comm per step: overlapped total should approach
  // compute-only time; blocking total is compute + comm.
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = {4, 4};
  options.problem = ProblemSpec::square(256, 16);
  options.mode = PayloadMode::Phantom;
  const double gamma = 1e-7;  // slow cores: compute dominates

  options.lookahead = 0;
  const auto blocking = run_once(options, gamma);
  options.lookahead = 1;
  const auto overlapped = run_once(options, gamma);

  EXPECT_LT(overlapped.timing.total_time, blocking.timing.total_time);
  // Nearly all communication hidden: exposed comm under 25% of blocking's.
  EXPECT_LT(overlapped.timing.max_comm_time,
            0.25 * blocking.timing.max_comm_time);
  // And the total approaches the pure compute time (within the one
  // non-hidden prologue broadcast).
  EXPECT_LT(overlapped.timing.total_time,
            blocking.timing.max_comp_time +
                2.5 * blocking.timing.max_comm_time /
                    static_cast<double>(256 / 16));
}

TEST(Overlap, NeverSlowerThanBlocking) {
  for (auto algorithm : {Algorithm::Summa, Algorithm::Hsumma}) {
    RunOptions options;
    options.algorithm = algorithm;
    options.grid = {4, 4};
    options.groups = {2, 2};
    options.problem = ProblemSpec::square(256, 16);
    options.mode = PayloadMode::Phantom;

    options.lookahead = 0;
    const auto blocking = run_once(options, 1e-9);
    options.lookahead = 1;
    const auto overlapped = run_once(options, 1e-9);
    EXPECT_LE(overlapped.timing.total_time,
              blocking.timing.total_time * (1.0 + 1e-9))
        << hs::core::to_string(algorithm);
  }
}

TEST(Overlap, SameWireTraffic) {
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = {4, 4};
  options.problem = ProblemSpec::square(128, 8);
  options.mode = PayloadMode::Phantom;

  options.lookahead = 0;
  const auto blocking = run_once(options, 1e-9);
  options.lookahead = 1;
  const auto overlapped = run_once(options, 1e-9);
  EXPECT_EQ(overlapped.messages, blocking.messages);
  EXPECT_EQ(overlapped.wire_bytes, blocking.wire_bytes);
}

TEST(Overlap, WorksWithSingleStep) {
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = {2, 2};
  options.problem = ProblemSpec::square(32, 16);  // exactly 2 steps
  options.lookahead = 1;
  options.verify = true;
  EXPECT_LT(run_once(options, 1e-9).max_error, 1e-12);

  options.problem = ProblemSpec::square(32, 8);
  EXPECT_LT(run_once(options, 1e-9).max_error, 1e-12);
}

TEST(Overlap, WorksInClosedFormMode) {
  hs::desim::Engine engine;
  hs::mpc::Machine machine(
      engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
      {.ranks = 16,
       .collective_mode = hs::mpc::CollectiveMode::ClosedForm,
       .gamma_flop = 1e-7});
  RunOptions options;
  options.algorithm = Algorithm::Summa;
  options.grid = {4, 4};
  options.problem = ProblemSpec::square(256, 16);
  options.mode = PayloadMode::Phantom;
  options.lookahead = 1;
  const auto result = hs::core::run(machine, options);
  EXPECT_GT(result.timing.total_time, 0.0);
  // Still hides communication.
  EXPECT_LT(result.timing.max_comm_time, result.timing.max_comp_time);
}

TEST(Overlap, DeepLookaheadStaysNumericallyCorrect) {
  // D >= 2 reorders Real-mode staging copies and GEMM applications across
  // slot rings; every task-plan multiplication kernel must still produce
  // the exact product.
  for (const int depth : {2, 3}) {
    RunOptions options;
    options.problem = ProblemSpec::square(96, 8);
    options.lookahead = depth;
    options.verify = true;

    options.algorithm = Algorithm::Summa;
    options.grid = {2, 4};
    EXPECT_LT(run_once(options, 1e-9).max_error, 1e-12) << "summa D=" << depth;

    options.algorithm = Algorithm::Hsumma;
    options.grid = {4, 4};
    options.groups = {2, 2};
    options.problem = ProblemSpec::square(96, 4);
    options.problem.outer_block = 12;
    EXPECT_LT(run_once(options, 1e-9).max_error, 1e-12)
        << "hsumma D=" << depth;

    options.algorithm = Algorithm::Cannon;
    options.groups = {1, 1};
    options.problem = ProblemSpec::square(96, 8);
    EXPECT_LT(run_once(options, 1e-9).max_error, 1e-12)
        << "cannon D=" << depth;
  }
}

TEST(Overlap, UnsupportingKernelFailsListingSupportingOnes) {
  RunOptions options;
  options.algorithm = Algorithm::Fox;
  options.grid = {4, 4};
  options.problem = ProblemSpec::square(256, 16);
  options.mode = PayloadMode::Phantom;
  options.lookahead = 1;
  try {
    run_once(options, 1e-9);
    FAIL() << "fox with look-ahead should be rejected";
  } catch (const hs::PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("fox"), std::string::npos) << message;
    // The error must name the kernels that DO run the depth.
    for (const char* name : {"summa", "hsumma", "cannon", "lu"})
      EXPECT_NE(message.find(name), std::string::npos)
          << "missing '" << name << "' in: " << message;
  }
}

TEST(Overlap, CyclicKernelsRunAnyDepth) {
  // The block-cyclic layouts run the SUMMA and HSUMMA task plans, so no
  // kernel caps the depth at the D = 1 double buffer any more.
  for (const Algorithm algorithm :
       {Algorithm::SummaCyclic, Algorithm::HsummaCyclic}) {
    RunOptions options;
    options.algorithm = algorithm;
    options.grid = {4, 4};
    options.groups = {2, 2};
    options.problem = ProblemSpec::square(256, 16);
    options.mode = PayloadMode::Phantom;
    const double blocking = run_once(options, 1e-9).timing.total_time;
    for (const int depth : {1, 2, 4}) {
      options.lookahead = depth;
      EXPECT_LE(run_once(options, 1e-9).timing.total_time, blocking)
          << hs::core::to_string(algorithm) << " D=" << depth;
    }
  }
}

}  // namespace
