#include "exec/executor.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace {

using hs::exec::ExecutorOptions;
using hs::exec::ParallelExecutor;
using hs::exec::SimJob;

SimJob small_job(int ranks, int groups) {
  SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.gamma_flop = job.platform.gamma_flop;
  job.ranks = ranks;
  job.groups = groups;
  job.problem = hs::core::ProblemSpec::square(256, 32);
  job.bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;
  return job;
}


TEST(SimJob, CacheKeyIsStableAndDiscriminates) {
  const SimJob a = small_job(16, 2);
  EXPECT_FALSE(a.cache_key().empty());
  EXPECT_EQ(a.cache_key(), small_job(16, 2).cache_key());
  EXPECT_NE(a.cache_key(), small_job(16, 4).cache_key());
  SimJob b = small_job(16, 2);
  b.seed += 1;
  EXPECT_NE(a.cache_key(), b.cache_key());
  SimJob c = small_job(16, 2);
  c.noise_sigma = 0.1;
  c.noise_seed = 7;
  EXPECT_NE(a.cache_key(), c.cache_key());
}

TEST(SimJob, PlatformNameDoesNotAffectKey) {
  SimJob a = small_job(16, 2);
  SimJob b = small_job(16, 2);
  b.platform.name = "renamed";
  EXPECT_EQ(a.cache_key(), b.cache_key());
}

TEST(SimJob, UndescribableNetworkIsUncacheable) {
  struct Opaque : hs::net::NetworkModel {
    double transfer_time(int, int, std::uint64_t bytes) const override {
      return 1e-6 + 1e-9 * static_cast<double>(bytes);
    }
  };
  SimJob job = small_job(16, 2);
  job.network = std::make_shared<Opaque>();
  EXPECT_TRUE(job.cache_key().empty());
}

TEST(Executor, ParallelMatchesSerialBitExactly) {
  const std::vector<int> group_counts{1, 2, 4, 8, 16};
  std::vector<hs::core::RunResult> serial;
  for (int g : group_counts)
    serial.push_back(hs::exec::run_sim_job(small_job(16, g)));

  ParallelExecutor executor({.jobs = 4});
  std::vector<std::size_t> ids;
  for (int g : group_counts) ids.push_back(executor.submit(small_job(16, g)));
  for (std::size_t i = 0; i < ids.size(); ++i)
    EXPECT_TRUE(executor.result(ids[i]) == serial[i])
        << "G=" << group_counts[i];
}

TEST(Executor, SecondIdenticalJobIsServedFromCache) {
  ParallelExecutor executor({.jobs = 2});
  const std::size_t first = executor.submit(small_job(16, 4));
  const auto& first_result = executor.result(first);  // job has completed
  const std::size_t second = executor.submit(small_job(16, 4));
  EXPECT_TRUE(executor.result(second) == first_result);
  EXPECT_EQ(executor.jobs_submitted(), 2u);
  EXPECT_EQ(executor.engines_run(), 1u);
  EXPECT_EQ(executor.cache_hits(), 1u);
}

TEST(Executor, InFlightDuplicatesCoalesce) {
  // One worker: submitting N identical jobs back to back guarantees the
  // duplicates arrive while the first is still queued or running.
  ParallelExecutor executor({.jobs = 1});
  std::vector<std::size_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(executor.submit(small_job(16, 2)));
  executor.wait_all();
  EXPECT_EQ(executor.engines_run(), 1u);
  EXPECT_EQ(executor.cache_hits(), 3u);
  for (std::size_t id : ids)
    EXPECT_TRUE(executor.result(id) == executor.result(ids[0]));
}

TEST(Executor, CachedChainResultEqualsAFreshRun) {
  // A chain result carries a per-level vector: equality must compare the
  // levels' values, not the vector's heap address.
  SimJob job = small_job(16, 1);
  job.hierarchy = hs::core::GroupHierarchy::parse("2x2");
  job.lookahead = 2;
  ParallelExecutor executor({.jobs = 1});
  const hs::core::RunResult& cached = executor.result(executor.submit(job));
  ASSERT_FALSE(cached.timing.max_level_comm_time.empty());
  EXPECT_TRUE(cached == hs::exec::run_sim_job(job));
}

TEST(Executor, UncacheableJobRunsEveryTime) {
  struct Opaque : hs::net::NetworkModel {
    double transfer_time(int, int, std::uint64_t bytes) const override {
      return 1e-6 + 1e-9 * static_cast<double>(bytes);
    }
  };
  ParallelExecutor executor({.jobs = 2});
  SimJob job = small_job(16, 2);
  job.network = std::make_shared<Opaque>();
  // ClosedForm collectives require a Hockney network.
  job.collective_mode = hs::mpc::CollectiveMode::PointToPoint;
  const std::size_t a = executor.submit(job);
  executor.result(a);
  const std::size_t b = executor.submit(job);
  EXPECT_TRUE(executor.result(a) == executor.result(b));
  EXPECT_EQ(executor.engines_run(), 2u);
  EXPECT_EQ(executor.cache_hits(), 0u);
}

TEST(Executor, ErrorsPropagateAndAreNotCached) {
  ParallelExecutor executor({.jobs = 2});
  SimJob bad = small_job(16, 3);  // no 3-group arrangement on a 4x4 grid
  const std::size_t id = executor.submit(bad);
  EXPECT_THROW(executor.result(id), hs::PreconditionError);
  // The failure is replayed for coalesced duplicates but never memoized:
  // a later identical submission runs again.
  const std::size_t retry = executor.submit(bad);
  EXPECT_THROW(executor.result(retry), hs::PreconditionError);
  EXPECT_EQ(executor.engines_run(), 2u);
}

TEST(Executor, ManyMixedJobsKeepSubmissionOrderIdentity) {
  ParallelExecutor executor({.jobs = 4});
  std::vector<std::size_t> ids;
  std::vector<int> expected_groups;
  for (int round = 0; round < 3; ++round) {
    for (int g : {1, 2, 4, 8}) {
      ids.push_back(executor.submit(small_job(16, g)));
      expected_groups.push_back(g);
    }
  }
  // Rounds 2 and 3 are pure duplicates of round 1.
  executor.wait_all();
  EXPECT_EQ(executor.jobs_submitted(), 12u);
  EXPECT_EQ(executor.engines_run(), 4u);
  EXPECT_EQ(executor.cache_hits(), 8u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::size_t first = static_cast<std::size_t>(
        expected_groups[i] == 1   ? 0
        : expected_groups[i] == 2 ? 1
        : expected_groups[i] == 4 ? 2
                                  : 3);
    EXPECT_TRUE(executor.result(ids[i]) == executor.result(first));
  }
}

}  // namespace
