// Straggler goldens: the virtual-time results of runs under slowdown
// windows, pinned hexfloat-exact. The values come from the fault subsystem
// as it was before message drops, link degradation and deadlines were
// deleted, so they certify that straggler results survived that deletion
// bit for bit; never re-capture them from the current code. Pinned:
//
//   * (a) FaultPlan::stragglers(16, 2, 4.0, 1) on SUMMA and on HSUMMA G=4;
//   * (b) one finite window that opens during a transfer of its rank and
//     closes during one of its compute charges, so the piecewise stretch
//     crosses a window boundary on both paths (checked, not assumed);
//   * (c) HSUMMA G=4 at look-ahead 1 under plan (a), the shape of
//     overlap_frontier's straggler rows;
//
// plus the canonical bytes of a plan with one finite and one open window.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "exec/sim_job.hpp"
#include "fault/fault_plan.hpp"
#include "trace/recorder.hpp"

namespace {

using hs::exec::SimJob;
using hs::fault::FaultPlan;
using hs::fault::kForever;

// Grid5000 calibrated, 4x4 ranks, n = 256, b = 64, phantom payloads.
SimJob base_job(int groups, const FaultPlan& plan) {
  SimJob job;
  job.platform = hs::net::Platform::grid5000_calibrated();
  job.gamma_flop = job.platform.gamma_flop;
  job.ranks = 16;
  job.groups = groups;
  job.problem = hs::core::ProblemSpec::square(256, 64);
  job.faults = std::make_shared<const FaultPlan>(plan);
  return job;
}

// Every pinned field, doubles as hexfloats.
std::string fingerprint(const hs::core::RunResult& result) {
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                "total=%a max_comm=%a max_comp=%a mean_comm=%a mean_comp=%a "
                "messages=%llu wire_bytes=%llu",
                result.timing.total_time, result.timing.max_comm_time,
                result.timing.max_comp_time, result.timing.mean_comm_time,
                result.timing.mean_comp_time,
                static_cast<unsigned long long>(result.messages),
                static_cast<unsigned long long>(result.wire_bytes));
  return buffer;
}

// Rank 5 runs 3x slower over [kOpen, kClose): kOpen falls inside its send
// to rank 7 and kClose inside its third compute charge.
constexpr int kSlowRank = 5;
constexpr double kOpen = 0.027;
constexpr double kClose = 0.1275;

FaultPlan finite_window() {
  FaultPlan plan;
  plan.slowdowns.push_back({kSlowRank, kOpen, kClose, 3.0});
  return plan;
}

TEST(StragglerGoldens, SummaUnderTwoStragglers) {
  EXPECT_EQ(fingerprint(hs::exec::run_sim_job(
                base_job(1, FaultPlan::stragglers(16, 2, 4.0, 1)))),
            "total=0x1.4e8a98f3f7f6fp-2 max_comm=0x1.4e1256a09ee7p-2 "
            "max_comp=0x1.12e0be826d6cp-10 mean_comm=0x1.2a777117f3a64p-2 "
            "mean_comp=0x1.79f505f35665p-12 messages=96 wire_bytes=3145728");
}

TEST(StragglerGoldens, HsummaG4UnderTwoStragglers) {
  EXPECT_EQ(fingerprint(hs::exec::run_sim_job(
                base_job(4, FaultPlan::stragglers(16, 2, 4.0, 1)))),
            "total=0x1.54ebf9a790161p-2 max_comm=0x1.5473b75437062p-2 "
            "max_comp=0x1.12e0be826d74p-10 mean_comm=0x1.2f4d5c2793daap-2 "
            "mean_comp=0x1.79f505f35665p-12 messages=96 wire_bytes=3145728");
}

TEST(StragglerGoldens, FiniteWindowCrossesComputeAndTransferBoundaries) {
  SimJob job = base_job(1, finite_window());
  EXPECT_EQ(fingerprint(hs::exec::run_sim_job(job)),
            "total=0x1.36c433e25fcffp-3 max_comm=0x1.363ac3831e994p-3 "
            "max_comp=0x1.d415966a3a2cp-12 mean_comm=0x1.3634b9dc5f5abp-3 "
            "mean_comp=0x1.1ef40c00ea43p-12 messages=96 wire_bytes=3145728");

  // The window's edges really fall inside the slow rank's charges:
  // recording never perturbs virtual time, so this run is the same one.
  hs::trace::Recorder recorder;
  job.recorder = &recorder;
  hs::exec::run_sim_job(job);
  bool transfer_crosses_open = false;
  for (const hs::trace::WireSpan& span : recorder.wires())
    if ((span.src == kSlowRank || span.dst == kSlowRank) &&
        span.start < kOpen && kOpen < span.end)
      transfer_crosses_open = true;
  bool compute_crosses_close = false;
  for (const hs::trace::ComputeSpan& span : recorder.computes())
    if (span.rank == kSlowRank && span.start < kClose && kClose < span.end)
      compute_crosses_close = true;
  EXPECT_TRUE(transfer_crosses_open);
  EXPECT_TRUE(compute_crosses_close);
}

TEST(StragglerGoldens, HsummaG4LookaheadOneUnderTwoStragglers) {
  SimJob job = base_job(4, FaultPlan::stragglers(16, 2, 4.0, 1));
  job.lookahead = 1;
  EXPECT_EQ(fingerprint(hs::exec::run_sim_job(job)),
            "total=0x1.2fd8f24852166p-2 max_comm=0x1.2f60aff4f9068p-2 "
            "max_comp=0x1.12e0be826d6cp-10 mean_comm=0x1.06b6e230b5754p-2 "
            "mean_comp=0x1.79f505f356744p-12 messages=96 wire_bytes=3145728");
}

TEST(StragglerGoldens, CanonicalBytesOfFiniteAndOpenWindows) {
  FaultPlan plan;
  plan.seed = 7;
  plan.slowdowns.push_back({3, 0.25, 1.75, 4.0});
  plan.slowdowns.push_back({0, 0.0, kForever, 2.0});
  EXPECT_EQ(plan.canonical(),
            "seed=7;retry:max=16,base=0x1p+0,cap=0x1p+6;"
            "slow:rank=3,start=0x1p-2,end=0x1.cp+0,factor=0x1p+2;"
            "slow:rank=0,start=0x0p+0,end=inf,factor=0x1p+1");
}

}  // namespace
