// (G, D) sweep determinism through the parallel executor: the look-ahead
// depth is part of a job's identity, and sweeping the whole group-count x
// depth plane must give byte-identical results for any worker count.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/runner.hpp"
#include "exec/executor.hpp"
#include "exec/sim_job.hpp"

namespace {

using hs::core::Algorithm;
using hs::core::ProblemSpec;
using hs::exec::ParallelExecutor;
using hs::exec::SimJob;

/// The (kernel, G, D) plane a joint tune or frontier bench walks: every
/// task-plan kernel, group counts where the kernel has a hierarchy
/// dimension, depths past the double-buffer point.
std::vector<SimJob> plane() {
  std::vector<SimJob> jobs;
  auto add = [&jobs](Algorithm alg, ProblemSpec prob, int groups, int depth) {
    SimJob job;
    job.platform = hs::net::Platform::by_name("grid5000");
    job.gamma_flop = 5e-8;
    job.algorithm = alg;
    job.grid = {4, 4};
    job.groups = groups;
    job.problem = prob;
    job.lookahead = depth;
    jobs.push_back(job);
  };
  for (int depth : {0, 1, 2, 3}) {
    add(Algorithm::Summa, ProblemSpec::square(256, 16), 1, depth);
    for (int groups : {2, 4, 8})
      add(Algorithm::Hsumma, ProblemSpec::square(256, 8, 32), groups, depth);
    add(Algorithm::Cannon, ProblemSpec::square(256, 16), 1, depth);
    for (int groups : {1, 2})
      add(Algorithm::Lu, ProblemSpec::factorization(256, 16), groups, depth);
  }
  return jobs;
}

std::vector<hs::core::RunResult> sweep(int workers) {
  ParallelExecutor executor({.jobs = workers});
  const std::vector<SimJob> jobs = plane();
  std::vector<std::size_t> handles;
  handles.reserve(jobs.size());
  for (const SimJob& job : jobs) handles.push_back(executor.submit(job));
  std::vector<hs::core::RunResult> results;
  results.reserve(handles.size());
  for (const std::size_t handle : handles)
    results.push_back(executor.result(handle));
  return results;
}

TEST(TaskPlanSweep, WorkerCountNeverChangesAnyResult) {
  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE("job index " + std::to_string(i));
    EXPECT_EQ(serial[i].timing.total_time, parallel[i].timing.total_time);
    EXPECT_EQ(serial[i].timing.max_comm_time,
              parallel[i].timing.max_comm_time);
    EXPECT_EQ(serial[i].timing.max_comp_time,
              parallel[i].timing.max_comp_time);
    EXPECT_EQ(serial[i].timing.max_level_comm_time,
              parallel[i].timing.max_level_comm_time);
    EXPECT_EQ(serial[i].messages, parallel[i].messages);
    EXPECT_EQ(serial[i].wire_bytes, parallel[i].wire_bytes);
  }
}

TEST(TaskPlanSweep, LookaheadIsPartOfTheCacheIdentity) {
  // Depths must never coalesce in the result cache: same job at D=0 and
  // D=2 differs only in schedule, and the cache key has to see that.
  SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.algorithm = Algorithm::Hsumma;
  job.grid = {4, 4};
  job.groups = 4;
  job.problem = ProblemSpec::square(256, 8, 32);
  const std::string by_default = job.cache_key();
  job.lookahead = 0;
  const std::string d0 = job.cache_key();
  job.lookahead = 2;
  const std::string d2 = job.cache_key();
  ASSERT_FALSE(d0.empty());
  EXPECT_NE(d0, d2);
  job.lookahead = 1;
  EXPECT_NE(job.cache_key(), d0);
  EXPECT_NE(job.cache_key(), d2);
  // An explicit D = 0 runs the default job's simulation and shares its key.
  EXPECT_EQ(d0, by_default);
  // A negative depth is rejected, never aliased onto D = 0.
  job.lookahead = -1;
  EXPECT_THROW(job.cache_key(), hs::PreconditionError);
}

}  // namespace
