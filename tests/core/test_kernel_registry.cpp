// The KernelRegistry: name round-trips, descriptor totality, group
// adaptation, and the Phantom-vs-Real virtual-time parity the registry's
// harnesses must preserve for the factorization kernels.
#include "core/kernel_registry.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "exec/sim_job.hpp"
#include "net/model.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::all_kernels;
using hs::core::find_kernel;
using hs::core::kernel_descriptor;
using hs::core::KernelDescriptor;
using hs::core::PayloadMode;
using hs::core::ProblemSpec;
using hs::core::RunOptions;

TEST(KernelRegistry, EveryKernelRoundTripsThroughItsName) {
  ASSERT_FALSE(all_kernels().empty());
  for (const KernelDescriptor& kernel : all_kernels()) {
    // enum -> name -> enum.
    EXPECT_EQ(hs::core::to_string(kernel.kernel), kernel.name);
    EXPECT_EQ(hs::core::algorithm_from_string(kernel.name), kernel.kernel);
    // Lookups resolve to the same registered descriptor, not a copy.
    EXPECT_EQ(&kernel_descriptor(kernel.kernel), &kernel);
    EXPECT_EQ(find_kernel(kernel.name), &kernel);
    for (std::string_view alias : kernel.aliases) {
      EXPECT_EQ(find_kernel(alias), &kernel) << alias;
      EXPECT_EQ(hs::core::algorithm_from_string(alias), kernel.kernel);
    }
  }
}

TEST(KernelRegistry, RegistrationOrderMatchesEnumOrder) {
  for (std::size_t i = 0; i < all_kernels().size(); ++i)
    EXPECT_EQ(all_kernels()[i].kernel, static_cast<Algorithm>(i));
}

TEST(KernelRegistry, FactorizationKernelsAreRegistered) {
  EXPECT_TRUE(kernel_descriptor(Algorithm::Lu).factorization);
  EXPECT_TRUE(kernel_descriptor(Algorithm::Cholesky).factorization);
  EXPECT_FALSE(kernel_descriptor(Algorithm::Summa).factorization);
}

TEST(KernelRegistry, TaskPlanKernelsAreTheLookaheadKernels) {
  // Every look-ahead kernel lowers to a task plan, which runs any depth;
  // the block-cyclic layouts ride the SUMMA and HSUMMA plans.
  for (const Algorithm algorithm :
       {Algorithm::Summa, Algorithm::Hsumma, Algorithm::HsummaMultilevel,
        Algorithm::SummaCyclic, Algorithm::HsummaCyclic, Algorithm::Cannon,
        Algorithm::Lu})
    EXPECT_TRUE(kernel_descriptor(algorithm).task_plan)
        << hs::core::to_string(algorithm);
  for (const Algorithm algorithm :
       {Algorithm::Fox, Algorithm::Summa25D, Algorithm::Cholesky})
    EXPECT_FALSE(kernel_descriptor(algorithm).task_plan)
        << hs::core::to_string(algorithm);
  EXPECT_EQ(hs::core::lookahead_kernel_name_list(),
            "summa, hsumma, hsumma-multilevel, summa-cyclic, hsumma-cyclic, "
            "cannon, lu");
}

TEST(KernelRegistry, UnknownNameErrorListsEveryKernel) {
  EXPECT_EQ(find_kernel("strassen"), nullptr);
  try {
    hs::core::algorithm_from_string("strassen");
    FAIL() << "expected PreconditionError";
  } catch (const hs::PreconditionError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("unknown kernel 'strassen'"), std::string::npos)
        << message;
    for (const KernelDescriptor& kernel : all_kernels())
      EXPECT_NE(message.find(std::string(kernel.name)), std::string::npos)
          << "error message must list " << kernel.name << ": " << message;
  }
}

TEST(KernelRegistry, NameListNamesEveryKernelOnce) {
  const std::string list = hs::core::kernel_name_list();
  for (const KernelDescriptor& kernel : all_kernels())
    EXPECT_NE(list.find(std::string(kernel.name)), std::string::npos)
        << list;
}

TEST(KernelRegistry, AdaptGroupsSwitchesSummaFamilyFlatAndHier) {
  RunOptions options;
  options.algorithm = Algorithm::Hsumma;
  options.grid = {4, 4};
  hs::core::adapt_groups(1, options);
  EXPECT_EQ(options.algorithm, Algorithm::Summa);

  options.algorithm = Algorithm::Summa;
  hs::core::adapt_groups(4, options);
  EXPECT_EQ(options.algorithm, Algorithm::Hsumma);
  EXPECT_EQ(options.groups.size(), 4);

  options = RunOptions{};
  options.algorithm = Algorithm::Cannon;  // no group dimension
  options.grid = {4, 4};
  hs::core::adapt_groups(4, options);
  EXPECT_EQ(options.algorithm, Algorithm::Cannon);
  EXPECT_EQ(options.groups.size(), 1);
}

TEST(KernelRegistry, AdaptGroupsMapsFactorizationGroupsToLevels) {
  // The LU analogue of HSUMMA(I x J): row_levels = {J}, col_levels = {I}.
  RunOptions options;
  options.algorithm = Algorithm::Lu;
  options.grid = {4, 4};
  hs::core::adapt_groups(4, options);  // arrangement 2x2
  EXPECT_EQ(options.algorithm, Algorithm::Lu);
  EXPECT_EQ(options.row_levels, (std::vector<int>{2}));
  EXPECT_EQ(options.col_levels, (std::vector<int>{2}));

  // Factors of 1 are dropped (a 1xG arrangement hierarchizes one side).
  options = RunOptions{};
  options.algorithm = Algorithm::Lu;
  options.grid = {4, 4};
  hs::core::adapt_groups(2, options);  // arrangement 1x2
  EXPECT_EQ(options.row_levels, (std::vector<int>{2}));
  EXPECT_TRUE(options.col_levels.empty());

  // G <= 1 is the flat factorization.
  options = RunOptions{};
  options.algorithm = Algorithm::Cholesky;
  options.grid = {4, 4};
  hs::core::adapt_groups(1, options);
  EXPECT_TRUE(options.row_levels.empty());
  EXPECT_TRUE(options.col_levels.empty());
}

TEST(KernelRegistry, AdaptGroupsRejectsGroupsPlusExplicitLevels) {
  RunOptions options;
  options.algorithm = Algorithm::Lu;
  options.grid = {4, 4};
  options.row_levels = {2};
  EXPECT_THROW(hs::core::adapt_groups(4, options), hs::PreconditionError);
}

TEST(KernelRegistry, FactorizationGroupAdaptationMatchesExplicitLevels) {
  // A G-sweep point through run_sim_job must be bit-identical to the same
  // hierarchy spelled out as explicit level factors.
  hs::exec::SimJob by_groups;
  by_groups.platform = hs::net::Platform::by_name("grid5000");
  by_groups.algorithm = Algorithm::Lu;
  by_groups.grid = {4, 4};
  by_groups.groups = 4;
  by_groups.problem = ProblemSpec::factorization(256, 16);

  hs::exec::SimJob by_levels = by_groups;
  by_levels.groups = 1;
  by_levels.row_levels = {2};
  by_levels.col_levels = {2};

  const auto a = hs::exec::run_sim_job(by_groups);
  const auto b = hs::exec::run_sim_job(by_levels);
  EXPECT_EQ(a.timing.total_time, b.timing.total_time);
  EXPECT_EQ(a.timing.max_comm_time, b.timing.max_comm_time);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
}

// Phantom payloads must charge exactly the wire and compute time of real
// ones — the property that lets the figure sweeps run at BlueGene/P scale.
// For the factorizations this now goes through the registry harness.
class FactorizationParityTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(FactorizationParityTest, PhantomMatchesRealVirtualTime) {
  RunOptions options;
  options.algorithm = GetParam();
  options.grid = {4, 4};
  options.problem = ProblemSpec::factorization(128, 8);
  options.row_levels = {2};
  options.col_levels = {2};

  const auto run_in = [&options](PayloadMode mode) {
    RunOptions run_options = options;
    run_options.mode = mode;
    hs::desim::Engine engine;
    hs::mpc::Machine machine(
        engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
        {.ranks = options.grid.size(), .gamma_flop = 1e-9});
    return hs::core::run(machine, run_options);
  };
  const auto real = run_in(PayloadMode::Real);
  const auto phantom = run_in(PayloadMode::Phantom);
  // Bit-identical, not approximately equal.
  EXPECT_EQ(real.timing.total_time, phantom.timing.total_time);
  EXPECT_EQ(real.timing.max_comm_time, phantom.timing.max_comm_time);
  EXPECT_EQ(real.timing.max_comp_time, phantom.timing.max_comp_time);
  EXPECT_EQ(real.messages, phantom.messages);
  EXPECT_EQ(real.wire_bytes, phantom.wire_bytes);
}

INSTANTIATE_TEST_SUITE_P(LuAndCholesky, FactorizationParityTest,
                         ::testing::Values(Algorithm::Lu,
                                           Algorithm::Cholesky),
                         [](const auto& param_info) {
                           return std::string(
                               hs::core::to_string(param_info.param));
                         });

TEST(KernelRegistry, VerifyInPhantomModeIsAHardError) {
  for (const Algorithm algorithm : {Algorithm::Summa, Algorithm::Lu}) {
    RunOptions options;
    options.algorithm = algorithm;
    options.grid = {2, 2};
    options.problem = algorithm == Algorithm::Lu
                          ? ProblemSpec::factorization(32, 8)
                          : ProblemSpec::square(32, 8);
    options.mode = PayloadMode::Phantom;
    options.verify = true;
    hs::desim::Engine engine;
    hs::mpc::Machine machine(
        engine, std::make_shared<hs::net::HockneyModel>(1e-4, 1e-9),
        {.ranks = 4, .gamma_flop = 1e-9});
    EXPECT_THROW(hs::core::run(machine, options), hs::PreconditionError);
  }
}

}  // namespace
