// FaultPlan identity: canonical spec strings, the straggler generator, and
// participation in the executor cache key.
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "exec/sim_job.hpp"

namespace {

using hs::fault::FaultPlan;
using hs::fault::kForever;

TEST(FaultPlan, EmptyPlanCanonicalizesToEmptyString) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.canonical(), "");
  // A seed tweak on an empty plan changes nothing, so it must not change
  // the identity either.
  plan.seed = 99;
  EXPECT_EQ(plan.canonical(), "");
}

TEST(FaultPlan, StragglersPicksDistinctRanksDeterministically) {
  const FaultPlan a = FaultPlan::stragglers(16, 3, 8.0, 42);
  const FaultPlan b = FaultPlan::stragglers(16, 3, 8.0, 42);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.slowdowns.size(), 3u);
  std::set<int> ranks;
  for (const auto& w : a.slowdowns) {
    EXPECT_GE(w.rank, 0);
    EXPECT_LT(w.rank, 16);
    EXPECT_DOUBLE_EQ(w.factor, 8.0);
    EXPECT_EQ(w.end, kForever);
    ranks.insert(w.rank);
  }
  EXPECT_EQ(ranks.size(), 3u);  // distinct
  // A different seed (very likely) picks a different subset; it must at
  // minimum produce a different canonical identity via the seed clause.
  const FaultPlan c = FaultPlan::stragglers(16, 3, 8.0, 43);
  EXPECT_NE(c.canonical(), a.canonical());
}

TEST(FaultPlan, DistinctPlansGetDistinctCacheKeys) {
  hs::exec::SimJob job;
  job.ranks = 4;
  job.problem = hs::core::ProblemSpec::square(128, 32);
  const std::string clean_key = job.cache_key();
  ASSERT_FALSE(clean_key.empty());

  // A null plan and an empty plan are the same simulation as no plan.
  job.faults = std::make_shared<const FaultPlan>();
  EXPECT_EQ(job.cache_key(), clean_key);

  job.faults = std::make_shared<const FaultPlan>(
      FaultPlan::stragglers(4, 1, 4.0, 1));
  const std::string faulty_key = job.cache_key();
  EXPECT_NE(faulty_key, clean_key);

  job.faults = std::make_shared<const FaultPlan>(
      FaultPlan::stragglers(4, 1, 4.0, 2));  // different seed
  EXPECT_NE(job.cache_key(), faulty_key);
  EXPECT_NE(job.cache_key(), clean_key);
}

}  // namespace
