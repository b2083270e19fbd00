// Critical-path analyzer invariants on real simulated runs. For ClosedForm
// runs of the non-overlapped kernels the path is exact: its segments tile
// [start, end] of the run, so the category sums must reproduce total_time
// to addition round-off, and the comm attribution must stay within the
// TimingReport's per-phase maxima.
#include "trace/critical_path.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "exec/sim_job.hpp"
#include "trace/recorder.hpp"

namespace {

using hs::core::RunResult;
using hs::trace::analyze_critical_path;
using hs::trace::CriticalPathReport;
using hs::trace::PathCategory;
using hs::trace::Recorder;

RunResult record_run(hs::core::Algorithm algorithm, int groups,
                     Recorder& recorder,
                     hs::mpc::CollectiveMode mode =
                         hs::mpc::CollectiveMode::ClosedForm) {
  hs::exec::SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.gamma_flop = 1e-9;  // nonzero compute so Comp segments appear
  job.collective_mode = mode;
  job.algorithm = algorithm;
  job.ranks = 16;
  job.groups = groups;
  job.problem = hs::core::ProblemSpec::square(512, 64);
  job.recorder = &recorder;
  return hs::exec::run_sim_job(job);
}

// Multi-level variant: the chain drives the recursive kernel, whose
// broadcast stages stamp explicit levels 0..L-1 on their spans.
RunResult record_chain_run(const hs::core::GroupHierarchy& chain, int ranks,
                           Recorder& recorder) {
  hs::exec::SimJob job;
  job.platform = hs::net::Platform::by_name("grid5000");
  job.gamma_flop = 1e-9;
  job.collective_mode = hs::mpc::CollectiveMode::ClosedForm;
  job.algorithm = hs::core::Algorithm::Hsumma;
  job.ranks = ranks;
  job.groups = 1;
  job.hierarchy = chain;
  // 16x16 grid: k must divide into 16-block-column panels, so block 32.
  job.problem = hs::core::ProblemSpec::square(512, 32);
  job.recorder = &recorder;
  return hs::exec::run_sim_job(job);
}

void expect_tiles_exactly(const CriticalPathReport& path,
                          const RunResult& result) {
  ASSERT_FALSE(path.segments.empty());
  // Chronological, gap-free chain.
  for (std::size_t i = 1; i < path.segments.size(); ++i)
    EXPECT_NEAR(path.segments[i].start, path.segments[i - 1].end, 1e-12);
  double sum = 0.0;
  for (const auto& segment : path.segments) {
    EXPECT_GT(segment.duration(), 0.0);
    sum += segment.duration();
  }
  // The acceptance bound: categories decompose total_time to 1e-9.
  EXPECT_NEAR(sum, result.timing.total_time, 1e-9);
  EXPECT_NEAR(path.comp + path.outer_comm + path.inner_comm +
                  path.flat_comm + path.idle,
              result.timing.total_time, 1e-9);
  EXPECT_NEAR(path.total(), result.timing.total_time, 1e-9);
}

TEST(CriticalPath, EmptyRecorderYieldsEmptyReport) {
  Recorder recorder;
  const CriticalPathReport path = analyze_critical_path(recorder);
  EXPECT_TRUE(path.segments.empty());
  EXPECT_DOUBLE_EQ(path.total(), 0.0);
}

TEST(CriticalPath, SummaPathIsFlatCommPlusComp) {
  Recorder recorder;
  const RunResult result =
      record_run(hs::core::Algorithm::Summa, 1, recorder);
  const CriticalPathReport path = analyze_critical_path(recorder);
  expect_tiles_exactly(path, result);
  // Flat kernel: no outer/inner phases on the path.
  EXPECT_DOUBLE_EQ(path.outer_comm, 0.0);
  EXPECT_DOUBLE_EQ(path.inner_comm, 0.0);
  EXPECT_GT(path.flat_comm, 0.0);
  EXPECT_GT(path.comp, 0.0);
  EXPECT_LE(path.flat_comm, result.timing.max_comm_time + 1e-9);
}

TEST(CriticalPath, HsummaDecompositionMatchesTimingReport) {
  Recorder recorder;
  const RunResult result =
      record_run(hs::core::Algorithm::Hsumma, 4, recorder);
  const CriticalPathReport path = analyze_critical_path(recorder);
  expect_tiles_exactly(path, result);
  // Hierarchical kernel: the path's comm is split outer/inner only.
  EXPECT_DOUBLE_EQ(path.flat_comm, 0.0);
  EXPECT_GT(path.outer_comm, 0.0);
  EXPECT_GT(path.inner_comm, 0.0);
  // In lockstep closed form every rank sits inside some collective whenever
  // the chain is in a comm phase, so the chain's total comm reproduces the
  // slowest rank's comm budget exactly.
  EXPECT_NEAR(path.outer_comm + path.inner_comm,
              result.timing.max_comm_time, 1e-9);
  // Per-phase attribution differs between the two views: participation in
  // the outer broadcasts rotates across ranks, so the chain (which crosses
  // every step's A and B broadcast) holds at least as much outer time as
  // any single rank charged, while ranks skipping an outer step absorb the
  // wait inside the next inner collective instead.
  // The report's outer and inner phases are level slots 0 and 1.
  EXPECT_GE(path.outer_comm, result.timing.level_comm(0) - 1e-9);
  EXPECT_LE(path.inner_comm, result.timing.level_comm(1) + 1e-9);
  // Every segment carries a rank and the comm segments carry step marks.
  for (const auto& segment : path.segments)
    if (segment.category != PathCategory::Idle) {
      EXPECT_GE(segment.rank, 0);
      EXPECT_GE(segment.step, 0);
    }
}

TEST(CriticalPath, DepthFourChainSplitsPerLevel) {
  // A 4x4x4 chain on a 16x16 grid: three explicit factors plus the
  // trailing remainder stage give a depth-4 per-level comm split. The
  // acceptance bound: comp + sum(level_comm) + flat + idle reproduces
  // total_time to 1e-9 exactly as the fixed-category split does.
  Recorder recorder;
  const RunResult result =
      record_chain_run(hs::core::GroupHierarchy({4, 4, 4}), 256, recorder);
  const CriticalPathReport path = analyze_critical_path(recorder);
  expect_tiles_exactly(path, result);
  ASSERT_EQ(path.depth(), 4);
  // The vector split refines outer/inner: level 0 IS the outer phase and
  // the deeper levels partition the inner aggregate.
  EXPECT_DOUBLE_EQ(path.level_comm[0], path.outer_comm);
  double tail = 0.0, level_sum = 0.0;
  for (int l = 0; l < path.depth(); ++l) {
    EXPECT_GT(path.level_comm[static_cast<std::size_t>(l)], 0.0)
        << "level " << l;
    level_sum += path.level_comm[static_cast<std::size_t>(l)];
    if (l >= 1) tail += path.level_comm[static_cast<std::size_t>(l)];
  }
  EXPECT_NEAR(tail, path.inner_comm, 1e-12);
  EXPECT_NEAR(path.comp + level_sum + path.flat_comm + path.idle,
              result.timing.total_time, 1e-9);
  // Lockstep closed form: the chain's comm total is the slowest rank's
  // comm budget, just like the two-level case.
  EXPECT_NEAR(level_sum, result.timing.max_comm_time, 1e-9);
  // The TimingReport carries the matching per-level maxima.
  ASSERT_EQ(result.timing.max_level_comm_time.size(), 4u);
  // Deep chains surface the per-level split in the human-facing views.
  const std::string summary = path.summary();
  EXPECT_NE(summary.find("level 0:"), std::string::npos);
  EXPECT_NE(summary.find("level 3:"), std::string::npos);
}

TEST(CriticalPath, DepthTwoSummaryStaysByteCompatible) {
  // Two-level runs are fully described by the outer/inner head line; the
  // per-level continuation lines must NOT appear, so existing goldens and
  // scripts that parse the PR 4 summary format keep working unchanged.
  Recorder recorder;
  const RunResult result =
      record_run(hs::core::Algorithm::Hsumma, 4, recorder);
  (void)result;
  const CriticalPathReport path = analyze_critical_path(recorder);
  ASSERT_EQ(path.depth(), 2);
  EXPECT_DOUBLE_EQ(path.level_comm[0], path.outer_comm);
  EXPECT_NEAR(path.level_comm[1], path.inner_comm, 1e-12);
  const std::string summary = path.summary();
  EXPECT_EQ(summary.find("level"), std::string::npos);
  EXPECT_EQ(summary.find('\n'), std::string::npos);  // single head line
  EXPECT_EQ(summary.rfind("critical path ", 0), 0u);
}

TEST(CriticalPath, PointToPointPathStillTiles) {
  // The p2p walk is best-effort but must still produce a gap-free,
  // non-negative chain over the run window.
  Recorder recorder;
  const RunResult result =
      record_run(hs::core::Algorithm::Hsumma, 4, recorder,
                 hs::mpc::CollectiveMode::PointToPoint);
  const CriticalPathReport path = analyze_critical_path(recorder);
  ASSERT_FALSE(path.segments.empty());
  for (std::size_t i = 1; i < path.segments.size(); ++i)
    EXPECT_NEAR(path.segments[i].start, path.segments[i - 1].end, 1e-12);
  for (const auto& segment : path.segments)
    EXPECT_GT(segment.duration(), 0.0);
  EXPECT_LE(path.end_time, result.timing.total_time + 1e-9);
}

TEST(CriticalPath, SummaryAndTableNameEveryCategory) {
  Recorder recorder;
  const RunResult result =
      record_run(hs::core::Algorithm::Hsumma, 4, recorder);
  (void)result;
  const CriticalPathReport path = analyze_critical_path(recorder);
  const std::string summary = path.summary();
  EXPECT_NE(summary.find("comp"), std::string::npos);
  EXPECT_NE(summary.find("outer"), std::string::npos);
  EXPECT_NE(summary.find("inner"), std::string::npos);
  EXPECT_DOUBLE_EQ(path.of(PathCategory::Comp), path.comp);
  EXPECT_DOUBLE_EQ(path.of(PathCategory::OuterComm), path.outer_comm);
}

}  // namespace
