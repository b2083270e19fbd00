#include "net/bcast_cost.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/check.hpp"

namespace {

using hs::net::BcastAlgo;

constexpr double kAlpha = 1e-4;
constexpr double kBeta = 1e-9;

TEST(BcastCost, SingleRankIsFree) {
  for (auto algo : {BcastAlgo::Flat, BcastAlgo::Binomial,
                    BcastAlgo::ScatterRingAllgather,
                    BcastAlgo::ScatterRecDblAllgather, BcastAlgo::Pipelined})
    EXPECT_EQ(hs::net::bcast_time(algo, 1, 1 << 20, kAlpha, kBeta), 0.0);
}

TEST(BcastCost, FlatIsLinearInRanks) {
  const double t8 = hs::net::bcast_time(BcastAlgo::Flat, 8, 1000, kAlpha, kBeta);
  EXPECT_DOUBLE_EQ(t8, 7.0 * (kAlpha + 1000.0 * kBeta));
}

TEST(BcastCost, BinomialIsLogarithmic) {
  EXPECT_DOUBLE_EQ(
      hs::net::bcast_time(BcastAlgo::Binomial, 16, 2048, kAlpha, kBeta),
      4.0 * (kAlpha + 2048.0 * kBeta));
  // Non-power-of-two rounds up.
  EXPECT_DOUBLE_EQ(
      hs::net::bcast_time(BcastAlgo::Binomial, 9, 0, kAlpha, kBeta),
      4.0 * kAlpha);
}

TEST(BcastCost, VanDeGeijnMatchesPaperFormula) {
  // (log2 p + p - 1) alpha + 2 (p-1)/p m beta.
  const int p = 32;
  const std::uint64_t m = 1 << 16;
  const double expected =
      (5.0 + 31.0) * kAlpha + 2.0 * (31.0 / 32.0) * double(m) * kBeta;
  EXPECT_DOUBLE_EQ(hs::net::bcast_time(BcastAlgo::ScatterRingAllgather, p, m,
                                       kAlpha, kBeta),
                   expected);
}

TEST(BcastCost, ScatterRecDblHalvesLatencyOfRing) {
  const int p = 64;
  const auto ring = hs::net::bcast_coefficients(
      BcastAlgo::ScatterRingAllgather, p, 1 << 20);
  const auto recdbl = hs::net::bcast_coefficients(
      BcastAlgo::ScatterRecDblAllgather, p, 1 << 20);
  EXPECT_DOUBLE_EQ(recdbl.latency_factor, 12.0);
  EXPECT_DOUBLE_EQ(ring.latency_factor, 69.0);
  EXPECT_DOUBLE_EQ(recdbl.bandwidth_factor, ring.bandwidth_factor);
}

TEST(BcastCost, PipelinedApproachesBandwidthOptimal) {
  // With many segments, W -> 1 (each byte crosses each link once).
  const std::uint64_t m = 100 * hs::net::kPipelineSegmentBytes;
  const auto k = hs::net::bcast_coefficients(BcastAlgo::Pipelined, 8, m);
  EXPECT_NEAR(k.bandwidth_factor, 1.06, 0.01);
  EXPECT_DOUBLE_EQ(k.latency_factor, 106.0);  // p - 2 + s
}

TEST(BcastCost, ResolveAutoMatchesMpichPolicy) {
  using hs::net::resolve_auto;
  // Short messages -> binomial regardless of rank count.
  EXPECT_EQ(resolve_auto(BcastAlgo::MpichAuto, 1024, 1024),
            BcastAlgo::Binomial);
  // Few ranks -> binomial even for large messages.
  EXPECT_EQ(resolve_auto(BcastAlgo::MpichAuto, 4, 1 << 20),
            BcastAlgo::Binomial);
  // Large message, power-of-two ranks -> scatter + recursive doubling.
  EXPECT_EQ(resolve_auto(BcastAlgo::MpichAuto, 64, 1 << 20),
            BcastAlgo::ScatterRecDblAllgather);
  // Large message, non-power-of-two -> scatter + ring.
  EXPECT_EQ(resolve_auto(BcastAlgo::MpichAuto, 48, 1 << 20),
            BcastAlgo::ScatterRingAllgather);
  // Concrete algorithms pass through unchanged.
  EXPECT_EQ(resolve_auto(BcastAlgo::Flat, 48, 1 << 20), BcastAlgo::Flat);
}

TEST(BcastCost, ZeroBytesChargesLatencyOnly) {
  EXPECT_DOUBLE_EQ(
      hs::net::bcast_time(BcastAlgo::Binomial, 8, 0, kAlpha, kBeta),
      3.0 * kAlpha);
}

TEST(CollectiveCosts, ReduceEqualsBinomialBcast) {
  EXPECT_DOUBLE_EQ(hs::net::reduce_time(16, 4096, kAlpha, kBeta),
                   hs::net::bcast_time(BcastAlgo::Binomial, 16, 4096, kAlpha,
                                       kBeta));
}

TEST(BcastCost, NameRoundTrip) {
  for (auto algo : {BcastAlgo::Flat, BcastAlgo::Binomial,
                    BcastAlgo::ScatterRingAllgather,
                    BcastAlgo::ScatterRecDblAllgather, BcastAlgo::Pipelined,
                    BcastAlgo::MpichAuto})
    EXPECT_EQ(hs::net::bcast_algo_from_string(hs::net::to_string(algo)), algo);
}

TEST(BcastCost, UnknownNameThrows) {
  EXPECT_THROW(hs::net::bcast_algo_from_string("tree-of-life"),
               hs::PreconditionError);
}

class MonotoneInRanksTest : public ::testing::TestWithParam<BcastAlgo> {};

TEST_P(MonotoneInRanksTest, CostNeverDecreasesWithMoreRanks) {
  const auto algo = GetParam();
  double prev = 0.0;
  for (int p = 1; p <= 256; p *= 2) {
    const double t = hs::net::bcast_time(algo, p, 1 << 16, kAlpha, kBeta);
    EXPECT_GE(t, prev) << "p=" << p;
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Algos, MonotoneInRanksTest,
                         ::testing::Values(BcastAlgo::Flat,
                                           BcastAlgo::Binomial,
                                           BcastAlgo::ScatterRingAllgather,
                                           BcastAlgo::ScatterRecDblAllgather,
                                           BcastAlgo::Pipelined));

}  // namespace
