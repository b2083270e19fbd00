#include "trace/phase.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using hs::desim::Engine;
using hs::desim::Task;
using hs::trace::PhaseTimer;
using hs::trace::RankStats;
using hs::trace::TimingReport;

TEST(PhaseTimer, AccumulatesVirtualTimeAcrossSuspension) {
  Engine engine;
  RankStats stats;
  auto program = [&]() -> Task<void> {
    {
      PhaseTimer timer(stats.comm_time, engine);
      co_await engine.sleep(2.5);
    }
    co_await engine.sleep(10.0);  // outside the timer
    {
      PhaseTimer timer(stats.comm_time, engine);
      co_await engine.sleep(0.5);
    }
  };
  engine.spawn(program());
  engine.run();
  EXPECT_DOUBLE_EQ(stats.comm_time, 3.0);
}

TEST(PhaseTimer, NestedTimersChargeBothSlots) {
  Engine engine;
  RankStats stats;
  stats.level_comm_time = {0.0};
  auto program = [&]() -> Task<void> {
    PhaseTimer total(stats.comm_time, engine);
    PhaseTimer level0(stats.level_comm_time[0], engine);
    co_await engine.sleep(1.5);
  };
  engine.spawn(program());
  engine.run();
  EXPECT_DOUBLE_EQ(stats.comm_time, 1.5);
  EXPECT_DOUBLE_EQ(stats.level_comm_time[0], 1.5);
}

TEST(RankStats, PlusEqualsMergesAllFields) {
  RankStats a{1.0, 2.0, {0.25, 0.75}, 10};
  RankStats b{0.5, 1.0, {0.25, 0.25}, 5};
  a += b;
  EXPECT_DOUBLE_EQ(a.comm_time, 1.5);
  EXPECT_DOUBLE_EQ(a.comp_time, 3.0);
  ASSERT_EQ(a.level_comm_time.size(), 2u);
  EXPECT_DOUBLE_EQ(a.level_comm_time[0], 0.5);
  EXPECT_DOUBLE_EQ(a.level_comm_time[1], 1.0);
  EXPECT_EQ(a.flops, 15u);
}

TEST(TimingReport, AggregatesMaxAndMean) {
  std::vector<RankStats> ranks(3);
  ranks[0] = {1.0, 4.0, {0.5, 0.5}, 100};
  ranks[1] = {3.0, 2.0, {2.0, 1.0}, 200};
  ranks[2] = {2.0, 6.0, {1.0, 1.0}, 300};
  const auto report = TimingReport::aggregate(10.0, ranks);
  EXPECT_DOUBLE_EQ(report.total_time, 10.0);
  EXPECT_DOUBLE_EQ(report.max_comm_time, 3.0);
  EXPECT_DOUBLE_EQ(report.max_comp_time, 6.0);
  EXPECT_DOUBLE_EQ(report.mean_comm_time, 2.0);
  EXPECT_DOUBLE_EQ(report.mean_comp_time, 4.0);
  EXPECT_DOUBLE_EQ(report.level_comm(0), 2.0);
  EXPECT_DOUBLE_EQ(report.level_comm(1), 1.0);
  EXPECT_EQ(report.level_comm(2), 0.0);  // past the last slot
  EXPECT_EQ(report.total_flops, 600u);
}

TEST(RankStats, PlusEqualsMergesRaggedLevelSplits) {
  RankStats a;
  a.level_comm_time = {1.0, 2.0};
  RankStats b;
  b.level_comm_time = {0.5, 0.5, 4.0};
  a += b;
  ASSERT_EQ(a.level_comm_time.size(), 3u);
  EXPECT_DOUBLE_EQ(a.level_comm_time[0], 1.5);
  EXPECT_DOUBLE_EQ(a.level_comm_time[1], 2.5);
  EXPECT_DOUBLE_EQ(a.level_comm_time[2], 4.0);
}

TEST(TimingReport, AggregatesPerLevelMaximaAcrossRaggedRanks) {
  std::vector<RankStats> ranks(2);
  ranks[0].level_comm_time = {1.0, 2.0};
  ranks[1].level_comm_time = {3.0};
  const auto report = TimingReport::aggregate(10.0, ranks);
  ASSERT_EQ(report.max_level_comm_time.size(), 2u);
  EXPECT_DOUBLE_EQ(report.max_level_comm_time[0], 3.0);
  EXPECT_DOUBLE_EQ(report.max_level_comm_time[1], 2.0);
}

TEST(TimingReport, EmptyRanksYieldZeros) {
  const auto report = TimingReport::aggregate(5.0, {});
  EXPECT_DOUBLE_EQ(report.total_time, 5.0);
  EXPECT_DOUBLE_EQ(report.max_comm_time, 0.0);
  EXPECT_DOUBLE_EQ(report.mean_comm_time, 0.0);
}

TEST(TimingReport, SingleRankMaxEqualsMean) {
  std::vector<RankStats> ranks(1);
  ranks[0] = {2.5, 7.5, {1.0, 1.5}, 42};
  const auto report = TimingReport::aggregate(10.0, ranks);
  EXPECT_DOUBLE_EQ(report.max_comm_time, report.mean_comm_time);
  EXPECT_DOUBLE_EQ(report.max_comp_time, report.mean_comp_time);
  EXPECT_DOUBLE_EQ(report.max_comm_time, 2.5);
  EXPECT_EQ(report.total_flops, 42u);
}

TEST(TimingReport, AggregateZeroTotalTimeKeepsPerRankStats) {
  // Degenerate but legal: an instantaneous run still aggregates.
  std::vector<RankStats> ranks(2);
  ranks[0] = {0.0, 0.0, {}, 10};
  ranks[1] = {0.0, 0.0, {}, 20};
  const auto report = TimingReport::aggregate(0.0, ranks);
  EXPECT_DOUBLE_EQ(report.total_time, 0.0);
  EXPECT_EQ(report.total_flops, 30u);
  EXPECT_DOUBLE_EQ(report.mean_comm_time, 0.0);
}

TEST(TimingReport, SummaryMentionsAllComponents) {
  std::vector<RankStats> ranks(1);
  ranks[0] = {0.5, 1.5, {}, 1};
  const auto report = TimingReport::aggregate(2.0, ranks);
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("total"), std::string::npos);
  EXPECT_NE(summary.find("comm"), std::string::npos);
  EXPECT_NE(summary.find("comp"), std::string::npos);
}

TEST(TimingReport, SummaryReportsAchievedFlopRate) {
  std::vector<RankStats> ranks(1);
  // 2e12 flops over 2 seconds = 1 Tflop/s achieved.
  ranks[0] = {0.5, 1.5, {}, 2'000'000'000'000ull};
  const auto report = TimingReport::aggregate(2.0, ranks);
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("flop/s"), std::string::npos);
  EXPECT_NE(summary.find("1.00 Tflop/s"), std::string::npos);
}

TEST(TimingReport, SummaryOmitsFlopRateWithoutFlops) {
  std::vector<RankStats> ranks(1);
  ranks[0] = {0.5, 1.5, {}, 0};
  const auto report = TimingReport::aggregate(2.0, ranks);
  EXPECT_EQ(report.summary().find("flop/s"), std::string::npos);
}

TEST(TimingReport, SummarySplitsLevelsOnlyForDeepChains) {
  // Depth <= 2 keeps the historical single head line byte-for-byte.
  std::vector<RankStats> two(1);
  two[0] = {0.5, 1.5, {0.3, 0.2}, 0};
  const auto shallow = TimingReport::aggregate(2.0, two);
  EXPECT_EQ(shallow.summary().find('\n'), std::string::npos);
  EXPECT_EQ(shallow.summary().find("level"), std::string::npos);
  // Depth >= 3 appends one continuation line per chain level.
  std::vector<RankStats> four(1);
  four[0] = {0.9, 1.1, {0.4, 0.25, 0.15, 0.1}, 0};
  const auto deep = TimingReport::aggregate(2.0, four);
  const std::string summary = deep.summary();
  for (const char* line : {"level 0 comm(max)", "level 1 comm(max)",
                           "level 2 comm(max)", "level 3 comm(max)"})
    EXPECT_NE(summary.find(line), std::string::npos) << line;
  // The head line itself is unchanged: the split rides below it.
  EXPECT_LT(summary.find("total"), summary.find('\n'));
}

}  // namespace
