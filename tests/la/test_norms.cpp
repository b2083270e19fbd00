#include "la/norms.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "la/generate.hpp"

namespace {

using hs::la::Matrix;

TEST(Norms, FrobeniusKnownValue) {
  Matrix m(2, 2);
  m(0, 0) = 3.0;
  m(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(hs::la::frobenius_norm(m.view()), 5.0);
}

TEST(Norms, FrobeniusOfZeroIsZero) {
  Matrix m(5, 7);
  EXPECT_DOUBLE_EQ(hs::la::frobenius_norm(m.view()), 0.0);
}

TEST(Norms, MaxAbsFindsNegativePeak) {
  Matrix m(2, 3);
  m(1, 2) = -9.5;
  m(0, 0) = 4.0;
  EXPECT_DOUBLE_EQ(hs::la::max_abs(m.view()), 9.5);
}

TEST(Norms, MaxAbsDiff) {
  Matrix a(2, 2), b(2, 2);
  a(0, 1) = 1.0;
  b(0, 1) = 1.5;
  b(1, 0) = -0.25;
  EXPECT_DOUBLE_EQ(hs::la::max_abs_diff(a.view(), b.view()), 0.5);

  // A NaN difference anywhere makes the result NaN, so no bound accepts it.
  Matrix nans(2, 2), zeros(2, 2);
  nans(0, 0) = std::nan("");
  nans(1, 1) = std::nan("");
  EXPECT_TRUE(std::isnan(hs::la::max_abs_diff(nans.view(), zeros.view())));
  EXPECT_TRUE(std::isnan(hs::la::max_abs_diff(zeros.view(), nans.view())));
  EXPECT_FALSE(hs::la::approx_equal(nans.view(), zeros.view()));
  EXPECT_FALSE(hs::la::approx_equal(zeros.view(), nans.view()));
}

TEST(Norms, MaxAbsPropagatesNan) {
  Matrix m(2, 3);
  m(0, 1) = std::nan("");
  m(1, 2) = 7.0;  // a larger finite value after the NaN
  EXPECT_TRUE(std::isnan(hs::la::max_abs(m.view())));
  EXPECT_TRUE(std::isnan(hs::la::max_propagating_nan(1.0, std::nan(""))));
  EXPECT_TRUE(std::isnan(hs::la::max_propagating_nan(std::nan(""), 1.0)));
  EXPECT_EQ(hs::la::max_propagating_nan(1.0, 2.0), 2.0);
  EXPECT_EQ(hs::la::max_propagating_nan(2.0, 1.0), 2.0);
}

TEST(Norms, MaxAbsDiffShapeMismatchThrows) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(hs::la::max_abs_diff(a.view(), b.view()),
               hs::PreconditionError);
}

TEST(Norms, RelativeErrorScalesWithReference) {
  Matrix a(1, 2), b(1, 2);
  b(0, 0) = 100.0;
  a(0, 0) = 101.0;
  EXPECT_NEAR(hs::la::relative_error(a.view(), b.view()), 0.01, 1e-12);
}

TEST(Norms, ApproxEqualRespectsTolerances) {
  Matrix a(1, 1), b(1, 1);
  a(0, 0) = 1.0 + 1e-14;
  b(0, 0) = 1.0;
  EXPECT_TRUE(hs::la::approx_equal(a.view(), b.view()));
  a(0, 0) = 1.0 + 1e-6;
  EXPECT_FALSE(hs::la::approx_equal(a.view(), b.view()));
  EXPECT_TRUE(hs::la::approx_equal(a.view(), b.view(), 1e-5));
}

TEST(Norms, StridedViewsSeeOnlyTheirBlock) {
  Matrix m(4, 4);
  m(0, 0) = 100.0;  // outside the block below
  m(2, 2) = 3.0;
  EXPECT_DOUBLE_EQ(hs::la::max_abs(m.block(1, 1, 3, 3)), 3.0);
}

}  // namespace
