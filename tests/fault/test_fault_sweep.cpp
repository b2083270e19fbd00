// Faulty sweeps stay deterministic: the same plan + seed produce
// bit-identical results for any worker count, and the result cache keyed
// on canonical plan strings never conflates distinct plans.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/executor.hpp"
#include "fault/fault_plan.hpp"

namespace {

using hs::core::RunResult;
using hs::exec::ParallelExecutor;
using hs::exec::SimJob;
using hs::fault::FaultPlan;

void set_hockney(SimJob& job) {
  job.platform.alpha = 1e-4;
  job.platform.beta = 1e-9;
}

std::vector<SimJob> faulty_jobs() {
  std::vector<SimJob> jobs;
  for (int groups : {1, 2, 4}) {
    for (std::uint64_t seed : {1ULL, 2ULL}) {
      SimJob job;
      set_hockney(job);
      job.ranks = 16;
      job.groups = groups;
      job.problem = hs::core::ProblemSpec::square(256, 64);
      job.faults = std::make_shared<const FaultPlan>(
          FaultPlan::stragglers(16, 2, 4.0, seed));
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<RunResult> run_all(int workers) {
  ParallelExecutor executor({.jobs = workers});
  const std::vector<SimJob> jobs = faulty_jobs();
  std::vector<std::size_t> indices;
  for (const SimJob& job : jobs) indices.push_back(executor.submit(job));
  std::vector<RunResult> results;
  for (std::size_t index : indices) results.push_back(executor.result(index));
  return results;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.timing.total_time, b.timing.total_time);
  EXPECT_EQ(a.timing.max_comm_time, b.timing.max_comm_time);
  EXPECT_EQ(a.timing.max_comp_time, b.timing.max_comp_time);
  EXPECT_EQ(a.timing.mean_comm_time, b.timing.mean_comm_time);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
}

TEST(FaultSweep, BitIdenticalAcrossWorkerCounts) {
  const std::vector<RunResult> serial = run_all(1);
  const std::vector<RunResult> parallel = run_all(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(serial[i], parallel[i]);
  }
  // The straggler factor actually bit: faulty runs are slower than the
  // same configuration without a plan.
  SimJob clean;
  set_hockney(clean);
  clean.ranks = 16;
  clean.groups = 1;
  clean.problem = hs::core::ProblemSpec::square(256, 64);
  clean.collective_mode = hs::mpc::CollectiveMode::PointToPoint;
  const RunResult baseline = hs::exec::run_sim_job(clean);
  EXPECT_GT(serial[0].timing.max_comm_time, baseline.timing.max_comm_time);
}

TEST(FaultSweep, RepeatedFaultyJobsServedFromCacheIdentically) {
  ParallelExecutor executor({.jobs = 2});
  SimJob job;
  set_hockney(job);
  job.ranks = 16;
  job.groups = 4;
  job.problem = hs::core::ProblemSpec::square(256, 64);
  job.faults = std::make_shared<const FaultPlan>(
      FaultPlan::stragglers(16, 1, 8.0, 3));
  ASSERT_FALSE(job.cache_key().empty());

  const std::size_t first = executor.submit(job);
  const RunResult direct = executor.result(first);
  const std::size_t again = executor.submit(job);
  expect_identical(direct, executor.result(again));

  // A different plan may not reuse the cached result: its key differs.
  SimJob other = job;
  other.faults = std::make_shared<const FaultPlan>(
      FaultPlan::stragglers(16, 1, 8.0, 4));
  EXPECT_NE(other.cache_key(), job.cache_key());
}

}  // namespace
