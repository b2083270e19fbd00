// A look-ahead run's memory does not grow with its panel count: each rank
// keeps only D + 1 steps of its task plan live, so running 128 panels
// instead of 16 must leave the process's peak RSS (VmHWM) nearly where the
// 16-panel run put it. A runtime that builds each rank's whole plan grows
// by ~55 MB here (p = 256, BG/P calibrated closed form). Each ctest case
// runs in its own process, so the peak it reads is this test's own. The
// totals are pinned bit for bit.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/rss_budget.hpp"
#include "exec/sim_job.hpp"

namespace {

using hs::core::Algorithm;

constexpr long long kGrowthBudgetKb = 8 * 1024;

hs::exec::SimJob job(Algorithm algorithm, int groups, long long panels) {
  const hs::net::Platform platform =
      hs::net::Platform::bluegene_p_calibrated();
  hs::exec::SimJob j;
  j.platform = platform;
  j.gamma_flop = platform.gamma_flop;
  j.collective_mode = hs::mpc::CollectiveMode::ClosedForm;
  j.machine_bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;
  j.bcast_algo = hs::net::BcastAlgo::ScatterRingAllgather;
  j.algorithm = algorithm;
  j.ranks = 256;
  j.groups = groups;
  j.problem = {4096, panels * 64, 4096, 64, 0};
  j.lookahead = 1;
  return j;
}

void expect_flat_in_panels(Algorithm algorithm, int groups, double total16,
                           double total128) {
  const double run16 =
      hs::exec::run_sim_job(job(algorithm, groups, 16)).timing.total_time;
  const long long peak16 = hs::test::peak_rss_kb();
  const double run128 =
      hs::exec::run_sim_job(job(algorithm, groups, 128)).timing.total_time;
  const long long peak128 = hs::test::peak_rss_kb();
  EXPECT_EQ(run16, total16);
  EXPECT_EQ(run128, total128);
#if defined(__SANITIZE_ADDRESS__)
  // ASan's quarantine keeps freed blocks resident, so VmHWM grows with the
  // number of frees, not with what the run holds live.
  GTEST_SKIP() << "peak RSS measures the ASan quarantine";
#endif
  if (peak16 == 0) GTEST_SKIP() << "VmHWM unavailable on this platform";
  std::printf("peak RSS: %lld kB with 16 panels, %lld kB with 128\n", peak16,
              peak128);
  EXPECT_LT(peak128 - peak16, kGrowthBudgetKb);
}

TEST(TaskPlanMemory, SummaCyclicPeakRssIsFlatInThePanelCount) {
  expect_flat_in_panels(Algorithm::SummaCyclic, 1, 0x1.51da32feea5d2p-3,
                        0x1.4bd6e207432b9p+0);
}

TEST(TaskPlanMemory, HsummaPeakRssIsFlatInThePanelCount) {
  expect_flat_in_panels(Algorithm::Hsumma, 4, 0x1.443dac0ee56c1p-3,
                        0x1.5ef83c9074c73p+0);
}

}  // namespace
