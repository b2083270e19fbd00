// The executor's two-tier result cache: the memo (hit/miss counters via
// MetricsRegistry) and the durable disk tier (populate on run, consult on
// miss, dedupe during the lookup).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>

#include "exec/executor.hpp"
#include "store/result_store.hpp"
#include "trace/metrics.hpp"

namespace {

namespace fs = std::filesystem;
using hs::exec::ParallelExecutor;
using hs::exec::SimJob;

SimJob small_job(int groups, int block = 32) {
  SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.gamma_flop = job.platform.gamma_flop;
  job.ranks = 16;
  job.groups = groups;
  job.problem = hs::core::ProblemSpec::square(256, block);
  job.bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;
  return job;
}

TEST(ExecutorCache, MetricsExposeHitMissEvictCounters) {
  ParallelExecutor executor({.jobs = 1});
  executor.result(executor.submit(small_job(2)));
  executor.result(executor.submit(small_job(2)));
  hs::trace::MetricsRegistry metrics;
  executor.collect_metrics(metrics);
  EXPECT_EQ(metrics.counter("exec.cache_hits"), 1u);
  EXPECT_EQ(metrics.counter("exec.cache_misses"), 1u);
}

class ExecutorStoreTest : public testing::Test {
 protected:
  void SetUp() override {
    root_ = testing::TempDir() + "/exec_store_" +
            testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::shared_ptr<hs::store::ResultStore> make_store() {
    return std::make_shared<hs::store::ResultStore>(
        hs::store::StoreOptions{.root = root_});
  }

  std::string root_;
};

TEST_F(ExecutorStoreTest, CompletedRunsArePublishedAndServedAcrossExecutors) {
  {
    ParallelExecutor executor({.jobs = 2, .store = make_store()});
    for (int g : {1, 2, 4}) executor.submit(small_job(g));
    executor.wait_all();
    EXPECT_EQ(executor.engines_run(), 3u);
    EXPECT_EQ(executor.store()->stats().writes, 3u);
  }
  // A fresh executor (fresh memory cache — models a new process) resolves
  // the whole sweep from disk.
  ParallelExecutor warm({.jobs = 2, .store = make_store()});
  for (int g : {1, 2, 4}) warm.submit(small_job(g));
  warm.wait_all();
  EXPECT_EQ(warm.engines_run(), 0u);
  EXPECT_EQ(warm.store_hits(), 3u);
  EXPECT_EQ(warm.cache_hits(), 3u);
}

TEST_F(ExecutorStoreTest, DiskResultsAreBitIdenticalToEngineResults) {
  ParallelExecutor cold({.jobs = 1});
  const auto& fresh = cold.result(cold.submit(small_job(4)));

  ParallelExecutor seeded({.jobs = 1, .store = make_store()});
  seeded.result(seeded.submit(small_job(4)));

  ParallelExecutor warm({.jobs = 1, .store = make_store()});
  const auto& loaded = warm.result(warm.submit(small_job(4)));
  EXPECT_EQ(warm.engines_run(), 0u);
  EXPECT_EQ(loaded.timing.total_time, fresh.timing.total_time);
  EXPECT_EQ(loaded.timing.max_comm_time, fresh.timing.max_comm_time);
  EXPECT_EQ(loaded.timing.max_comp_time, fresh.timing.max_comp_time);
  EXPECT_EQ(loaded.timing.total_flops, fresh.timing.total_flops);
  EXPECT_EQ(loaded.messages, fresh.messages);
  EXPECT_EQ(loaded.wire_bytes, fresh.wire_bytes);
}

TEST_F(ExecutorStoreTest, MemoryHitsDoNotTouchTheDiskTier) {
  ParallelExecutor executor({.jobs = 1, .store = make_store()});
  executor.result(executor.submit(small_job(2)));
  const auto after_first = executor.store()->stats();
  executor.result(executor.submit(small_job(2)));
  const auto after_second = executor.store()->stats();
  EXPECT_EQ(executor.store_hits(), 0u);
  EXPECT_EQ(after_second.hits, after_first.hits);
  EXPECT_EQ(after_second.writes, after_first.writes);
}

}  // namespace
