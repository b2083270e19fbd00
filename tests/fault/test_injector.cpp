// FaultPlan::stretch math: bit-exact pass-through when no window applies,
// and piecewise slowdown stretching of compute and transfer charges.
#include "fault/fault_plan.hpp"

#include <gtest/gtest.h>

namespace {

using hs::fault::FaultPlan;
using hs::fault::kForever;

TEST(Injector, NoMatchingFaultIsBitExactPassThrough) {
  FaultPlan plan;
  plan.slowdowns.push_back({5, 0.0, kForever, 3.0});

  // An awkward base value that would not survive any round-trip through
  // latency + (total - latency) arithmetic.
  const double base = 0.1 + 0.2;  // 0.30000000000000004
  EXPECT_EQ(plan.stretch(0, 1, 0.0, base), base);  // bit-exact
  EXPECT_EQ(plan.stretch(0, -1, 0.0, base), base);
}

TEST(Injector, ExpiredWindowIsBitExactPassThrough) {
  FaultPlan plan;
  plan.slowdowns.push_back({0, 0.0, 1.0, 4.0});
  const double base = 0.1 + 0.2;
  // Starting after the window closed: no stretching at all.
  EXPECT_EQ(plan.stretch(0, -1, 2.0, base), base);
}

TEST(Injector, SlowdownStretchesWorkInsideWindow) {
  FaultPlan plan;
  plan.slowdowns.push_back({0, 0.0, kForever, 2.0});
  EXPECT_DOUBLE_EQ(plan.stretch(0, -1, 0.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(plan.stretch(0, -1, 5.0, 0.25), 0.5);
  // Other ranks are untouched.
  EXPECT_EQ(plan.stretch(1, -1, 0.0, 1.0), 1.0);
}

TEST(Injector, StretchIsPiecewiseAcrossWindowBoundaries) {
  FaultPlan plan;
  plan.slowdowns.push_back({0, 1.0, 2.0, 2.0});
  // Start at 0.5 with 1.0s of work: 0.5s at full speed (half done), then
  // the window opens; the remaining 0.5 base takes 1.0s at factor 2.
  EXPECT_DOUBLE_EQ(plan.stretch(0, -1, 0.5, 1.0), 1.5);
  // Start inside the window with more work than the window can hold:
  // [1, 2) accomplishes 0.5 base, the remaining 0.5 runs at full speed.
  EXPECT_DOUBLE_EQ(plan.stretch(0, -1, 1.0, 1.0), 1.5);
  // Entirely inside: plain multiplication.
  EXPECT_DOUBLE_EQ(plan.stretch(0, -1, 1.0, 0.25), 0.5);
}

TEST(Injector, OverlappingWindowsTakeMaxFactor) {
  FaultPlan plan;
  plan.slowdowns.push_back({0, 0.0, kForever, 2.0});
  plan.slowdowns.push_back({0, 0.0, kForever, 3.0});
  EXPECT_DOUBLE_EQ(plan.stretch(0, -1, 0.0, 1.0), 3.0);
}

TEST(Injector, TransferStretchesOnEitherEndpoint) {
  FaultPlan plan;
  plan.slowdowns.push_back({1, 0.0, kForever, 2.0});
  // The straggler slows transfers it sends *and* transfers it receives.
  EXPECT_DOUBLE_EQ(plan.stretch(1, 0, 0.0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(plan.stretch(0, 1, 0.0, 0.5), 1.0);
  EXPECT_EQ(plan.stretch(2, 3, 0.0, 0.5), 0.5);
}

}  // namespace
