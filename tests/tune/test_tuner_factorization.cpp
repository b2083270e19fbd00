// The group tuner over the factorization kernels: the registry maps a
// candidate group count onto hierarchical panel broadcast level factors, so
// LU and Cholesky tune through the same SimJob path as HSUMMA.
#include "tune/group_tuner.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "exec/executor.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::ProblemSpec;

hs::tune::TuneOptions factorization_options(Algorithm kernel) {
  hs::tune::TuneOptions options;
  options.kernel = kernel;
  options.grid = {8, 8};
  options.problem = ProblemSpec::factorization(512, 16);
  // Strongly latency-dominated so the hierarchy's savings are pronounced.
  options.network = std::make_shared<hs::net::HockneyModel>(1e-3, 1e-10);
  options.bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;
  return options;
}

class FactorizationTunerTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(FactorizationTunerTest, FindsAHierarchyThatBeatsFlat) {
  const auto result =
      hs::tune::tune_groups(factorization_options(GetParam()));
  double flat_time = -1.0;
  for (const auto& sample : result.samples)
    if (sample.groups == 1) flat_time = sample.comm_time;
  ASSERT_GT(flat_time, 0.0);
  // On a latency-dominated network the hierarchical panel broadcasts win,
  // and the best pick is never worse than flat (G = 1 is always sampled).
  EXPECT_GT(result.best_groups, 1);
  EXPECT_LT(result.best_comm_time, flat_time);
}

TEST_P(FactorizationTunerTest, SecondIdenticalTuneIsAllCacheHits) {
  hs::exec::ParallelExecutor executor({.jobs = 2});
  auto options = factorization_options(GetParam());
  options.executor = &executor;

  const auto first = hs::tune::tune_groups(options);
  const std::uint64_t engines_after_first = executor.engines_run();
  EXPECT_GT(engines_after_first, 0u);

  const auto second = hs::tune::tune_groups(options);
  // Every sample of the re-tune is served from the executor's result
  // cache: no additional engine runs.
  EXPECT_EQ(executor.engines_run(), engines_after_first);
  EXPECT_EQ(executor.cache_hits(), engines_after_first);
  EXPECT_EQ(second.best_groups, first.best_groups);
  EXPECT_EQ(second.best_comm_time, first.best_comm_time);
}

INSTANTIATE_TEST_SUITE_P(LuAndCholesky, FactorizationTunerTest,
                         ::testing::Values(Algorithm::Lu,
                                           Algorithm::Cholesky),
                         [](const auto& param_info) {
                           return std::string(
                               hs::core::to_string(param_info.param));
                         });

TEST(FactorizationTuner, ParallelExecutorMatchesSerialBitExactly) {
  const auto serial =
      hs::tune::tune_groups(factorization_options(Algorithm::Lu));

  hs::exec::ParallelExecutor executor({.jobs = 4});
  auto options = factorization_options(Algorithm::Lu);
  options.executor = &executor;
  const auto parallel = hs::tune::tune_groups(options);

  EXPECT_EQ(parallel.best_groups, serial.best_groups);
  EXPECT_EQ(parallel.best_comm_time, serial.best_comm_time);  // bit-exact
  ASSERT_EQ(parallel.samples.size(), serial.samples.size());
  for (std::size_t i = 0; i < serial.samples.size(); ++i) {
    EXPECT_EQ(parallel.samples[i].groups, serial.samples[i].groups);
    EXPECT_EQ(parallel.samples[i].comm_time, serial.samples[i].comm_time);
    EXPECT_EQ(parallel.samples[i].total_time, serial.samples[i].total_time);
  }
}

TEST(FactorizationTuner, ReportedTimeMatchesDirectRun) {
  // Factorization samples are not truncated (scale = 1): the tuner's
  // projected time for the winner equals a direct run of that hierarchy.
  const auto options = factorization_options(Algorithm::Lu);
  const auto tuned = hs::tune::tune_groups(options);

  hs::exec::SimJob job;
  job.network = options.network;
  job.collective_mode = options.machine_config.collective_mode;
  job.machine_bcast_algo = options.machine_config.bcast_algo;
  job.gamma_flop = options.machine_config.gamma_flop;
  job.algorithm = Algorithm::Lu;
  job.grid = options.grid;
  job.groups = tuned.best_groups;
  job.problem = options.problem;
  job.bcast_algo = options.bcast_algo;
  const auto direct = hs::exec::run_sim_job(job);
  EXPECT_EQ(tuned.best_comm_time, direct.timing.max_comm_time);
}

}  // namespace
