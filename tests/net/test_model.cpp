#include "net/model.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace {

TEST(Hockney, AffineInBytes) {
  hs::net::HockneyModel model(1e-5, 2e-9);
  EXPECT_DOUBLE_EQ(model.transfer_time(0, 1, 0), 1e-5);
  EXPECT_DOUBLE_EQ(model.transfer_time(0, 1, 1000), 1e-5 + 2e-6);
  EXPECT_DOUBLE_EQ(model.alpha(), 1e-5);
  EXPECT_DOUBLE_EQ(model.beta(), 2e-9);
}

TEST(Hockney, PairIndependent) {
  hs::net::HockneyModel model(1e-5, 2e-9);
  EXPECT_DOUBLE_EQ(model.transfer_time(0, 1, 64), model.transfer_time(7, 3, 64));
}

TEST(Hockney, RejectsNegativeParameters) {
  EXPECT_THROW(hs::net::HockneyModel(-1.0, 0.0), hs::PreconditionError);
  EXPECT_THROW(hs::net::HockneyModel(0.0, -1.0), hs::PreconditionError);
}

TEST(Noisy, DeterministicForSameSeed) {
  auto base = std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9);
  hs::net::NoisyModel a(base, 0.2, 7);
  hs::net::NoisyModel b(base, 0.2, 7);
  for (int i = 0; i < 8; ++i)
    EXPECT_DOUBLE_EQ(a.transfer_time(i, i + 1, 100 * i),
                     b.transfer_time(i, i + 1, 100 * i));
}

TEST(Noisy, SeedChangesPerturbation) {
  auto base = std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9);
  hs::net::NoisyModel a(base, 0.2, 1);
  hs::net::NoisyModel b(base, 0.2, 2);
  EXPECT_NE(a.transfer_time(0, 1, 4096), b.transfer_time(0, 1, 4096));
}

TEST(Noisy, BoundedBySigma) {
  auto base = std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9);
  hs::net::NoisyModel noisy(base, 0.1, 99);
  for (int src = 0; src < 16; ++src) {
    const double t0 = base->transfer_time(src, src + 1, 5000);
    const double t = noisy.transfer_time(src, src + 1, 5000);
    EXPECT_GE(t, t0 * 0.9);
    EXPECT_LE(t, t0 * 1.1);
  }
}

TEST(Noisy, ZeroSigmaIsExact) {
  auto base = std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9);
  hs::net::NoisyModel noisy(base, 0.0, 5);
  EXPECT_DOUBLE_EQ(noisy.transfer_time(0, 1, 777),
                   base->transfer_time(0, 1, 777));
}

TEST(Noisy, TransferTimeIsPureAndOrderIndependent) {
  // The determinism contract behind `noise_study --seed` and the parallel
  // sweep executor: transfer_time depends only on (seed, src, dst, bytes),
  // never on call history, so any interleaving of jobs draws identical
  // perturbations.
  auto base = std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9);
  hs::net::NoisyModel forward(base, 0.2, 7);
  hs::net::NoisyModel backward(base, 0.2, 7);
  std::vector<double> a, b;
  for (int i = 0; i < 16; ++i)
    a.push_back(forward.transfer_time(i, i + 1, 64 * i));
  for (int i = 15; i >= 0; --i)  // reversed call order, same values
    b.push_back(backward.transfer_time(i, i + 1, 64 * i));
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(a[static_cast<std::size_t>(i)],
              b[static_cast<std::size_t>(15 - i)]);
  // Repeated queries are stable too (no hidden stream advancement).
  EXPECT_EQ(forward.transfer_time(3, 4, 192),
            forward.transfer_time(3, 4, 192));
}

TEST(Noisy, DescribeCarriesSeedAndSigma) {
  auto base = std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9);
  const hs::net::NoisyModel a(base, 0.2, 7);
  const hs::net::NoisyModel same(base, 0.2, 7);
  const hs::net::NoisyModel reseeded(base, 0.2, 8);
  EXPECT_EQ(a.describe(), same.describe());
  // Different seeds are different simulations and must never share a
  // cache key (describe() feeds SimJob::cache_key).
  EXPECT_NE(a.describe(), reseeded.describe());
  EXPECT_NE(a.describe().find("noisy("), std::string::npos);
}

TEST(Noisy, RejectsInvalidSigmaAndNullBase) {
  auto base = std::make_shared<hs::net::HockneyModel>(1e-5, 1e-9);
  EXPECT_THROW(hs::net::NoisyModel(base, 1.0, 0), hs::PreconditionError);
  EXPECT_THROW(hs::net::NoisyModel(base, -0.1, 0), hs::PreconditionError);
  EXPECT_THROW(hs::net::NoisyModel(nullptr, 0.1, 0), hs::PreconditionError);
}

}  // namespace
