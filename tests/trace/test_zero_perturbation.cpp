// The recorder's hard invariant: attaching observability sinks never
// changes simulation results. Each configuration runs twice on fresh
// engines — once bare, once with a Recorder (and MetricsRegistry) attached
// — and every RunResult field must match bit for bit (EXPECT_EQ on the
// doubles, not EXPECT_NEAR: the runs must be identical, not close).
#include <gtest/gtest.h>

#include "exec/sim_job.hpp"
#include "trace/metrics.hpp"
#include "trace/recorder.hpp"

namespace {

using hs::core::RunResult;
using hs::exec::SimJob;

SimJob base_job(hs::core::Algorithm algorithm, int groups,
                hs::mpc::CollectiveMode mode, int lookahead = 0) {
  SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.gamma_flop = 1e-9;
  job.collective_mode = mode;
  job.algorithm = algorithm;
  job.ranks = 16;
  job.groups = groups;
  job.problem = hs::core::ProblemSpec::square(512, 64);
  job.lookahead = lookahead;
  return job;
}

void expect_bit_identical(const RunResult& bare, const RunResult& traced) {
  EXPECT_EQ(bare.timing.total_time, traced.timing.total_time);
  EXPECT_EQ(bare.timing.max_comm_time, traced.timing.max_comm_time);
  EXPECT_EQ(bare.timing.max_comp_time, traced.timing.max_comp_time);
  EXPECT_EQ(bare.timing.mean_comm_time, traced.timing.mean_comm_time);
  EXPECT_EQ(bare.timing.mean_comp_time, traced.timing.mean_comp_time);
  EXPECT_EQ(bare.timing.max_level_comm_time,
            traced.timing.max_level_comm_time);
  EXPECT_EQ(bare.timing.total_flops, traced.timing.total_flops);
  EXPECT_EQ(bare.max_error, traced.max_error);
  EXPECT_EQ(bare.messages, traced.messages);
  EXPECT_EQ(bare.wire_bytes, traced.wire_bytes);
}

void expect_recorder_transparent(SimJob job) {
  const RunResult bare = hs::exec::run_sim_job(job);

  hs::trace::Recorder recorder;
  hs::trace::MetricsRegistry metrics;
  job.recorder = &recorder;
  job.metrics = &metrics;
  const RunResult traced = hs::exec::run_sim_job(job);

  EXPECT_FALSE(recorder.empty());  // the sinks really were attached
  EXPECT_FALSE(metrics.empty());
  expect_bit_identical(bare, traced);
}

TEST(ZeroPerturbation, FlatSummaPointToPoint) {
  expect_recorder_transparent(base_job(
      hs::core::Algorithm::Summa, 1, hs::mpc::CollectiveMode::PointToPoint));
}

TEST(ZeroPerturbation, HierarchicalHsummaPointToPoint) {
  expect_recorder_transparent(base_job(
      hs::core::Algorithm::Hsumma, 4, hs::mpc::CollectiveMode::PointToPoint));
}

TEST(ZeroPerturbation, HsummaClosedForm) {
  expect_recorder_transparent(base_job(
      hs::core::Algorithm::Hsumma, 4, hs::mpc::CollectiveMode::ClosedForm));
}

TEST(ZeroPerturbation, OverlappedSummaClosedForm) {
  expect_recorder_transparent(
      base_job(hs::core::Algorithm::Summa, 1,
               hs::mpc::CollectiveMode::ClosedForm, /*lookahead=*/1));
}

TEST(ZeroPerturbation, SinkJobsBypassTheCacheKey) {
  SimJob job = base_job(hs::core::Algorithm::Summa, 1,
                        hs::mpc::CollectiveMode::ClosedForm);
  EXPECT_FALSE(job.cache_key().empty());
  hs::trace::Recorder recorder;
  job.recorder = &recorder;
  EXPECT_TRUE(job.cache_key().empty());  // must run, never be served cached
  job.recorder = nullptr;
  hs::trace::MetricsRegistry metrics;
  job.metrics = &metrics;
  EXPECT_TRUE(job.cache_key().empty());
}

}  // namespace
