#include "la/matrix.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "la/generate.hpp"

namespace {

using hs::la::ConstMatrixView;
using hs::la::Matrix;
using hs::la::MatrixView;

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0);
}

TEST(Matrix, ElementAccessRoundTrips) {
  Matrix m(2, 3);
  m(1, 2) = 42.0;
  m(0, 0) = -1.0;
  EXPECT_EQ(m(1, 2), 42.0);
  EXPECT_EQ(m(0, 0), -1.0);
  EXPECT_EQ(std::as_const(m)(1, 2), 42.0);
}

TEST(Matrix, ViewSharesStorage) {
  Matrix m(2, 2);
  MatrixView v = m.view();
  v(0, 1) = 7.0;
  EXPECT_EQ(m(0, 1), 7.0);
  EXPECT_TRUE(v.contiguous());
}

TEST(MatrixView, BlockIndexing) {
  Matrix m(4, 5);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 5; ++j) m(i, j) = i * 10.0 + j;
  MatrixView block = m.block(1, 2, 2, 3);
  EXPECT_EQ(block.rows(), 2);
  EXPECT_EQ(block.cols(), 3);
  EXPECT_EQ(block.ld(), 5);
  EXPECT_FALSE(block.contiguous());
  EXPECT_EQ(block(0, 0), 12.0);
  EXPECT_EQ(block(1, 2), 24.0);
}

TEST(MatrixView, NestedBlocks) {
  Matrix m(6, 6);
  m(3, 4) = 5.0;
  MatrixView outer = m.block(2, 2, 4, 4);
  MatrixView inner = outer.block(1, 1, 2, 2);
  EXPECT_EQ(inner(0, 1), 5.0);
}

TEST(MatrixView, BlockBoundsChecked) {
  Matrix m(3, 3);
  EXPECT_THROW(m.view().block(0, 0, 4, 1), hs::PreconditionError);
  EXPECT_THROW(m.view().block(2, 2, 2, 2), hs::PreconditionError);
  EXPECT_THROW(m.view().block(-1, 0, 1, 1), hs::PreconditionError);
}

TEST(MatrixView, CopyFromContiguousAndStrided) {
  Matrix src(4, 4);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) src(i, j) = i + j * 0.5;
  Matrix dst(4, 4);
  dst.view().copy_from(src.view());
  EXPECT_EQ(dst(3, 3), src(3, 3));

  Matrix big(6, 6);
  big.block(1, 1, 4, 4).copy_from(src.view());
  EXPECT_EQ(big(1, 1), src(0, 0));
  EXPECT_EQ(big(4, 4), src(3, 3));
  EXPECT_EQ(big(0, 0), 0.0);
}

TEST(MatrixView, CopyFromEmptyViewIsANoOp) {
  // A rank that owns no rows or columns holds an empty matrix with no
  // storage; copying between such views must not touch the null pointer.
  Matrix none(0, 4), also_none(0, 4);
  none.view().copy_from(also_none.view());
  Matrix thin(3, 0), also_thin(3, 0);
  thin.view().copy_from(also_thin.view());
  Matrix big(2, 2);
  big.block(1, 0, 0, 2).copy_from(also_none.view().block(0, 0, 0, 2));
  EXPECT_EQ(big(1, 0), 0.0);
}

TEST(MatrixView, CopyFromShapeMismatchThrows) {
  Matrix a(2, 3), b(3, 2);
  EXPECT_THROW(a.view().copy_from(b.view()), hs::PreconditionError);
}

TEST(MatrixView, AddAccumulates) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 1.0;
  b(0, 0) = 2.0;
  b(1, 1) = 3.0;
  a.view().add(b.view());
  EXPECT_EQ(a(0, 0), 3.0);
  EXPECT_EQ(a(1, 1), 3.0);
}

TEST(MatrixView, FillSetsEveryElement) {
  Matrix m(3, 3);
  m.block(0, 0, 2, 2).fill(9.0);
  EXPECT_EQ(m(0, 0), 9.0);
  EXPECT_EQ(m(1, 1), 9.0);
  EXPECT_EQ(m(2, 2), 0.0);
}

TEST(MatrixView, FlatRequiresContiguity) {
  Matrix m(4, 4);
  EXPECT_EQ(m.view().flat().size(), 16u);
  EXPECT_THROW(m.block(0, 0, 2, 2).flat(), hs::PreconditionError);
}

TEST(MatrixView, LdMustCoverCols) {
  double data[4] = {};
  EXPECT_THROW(MatrixView(data, 2, 3, 2), hs::PreconditionError);
}

TEST(ConstView, ImplicitConversionFromMutable) {
  Matrix m(2, 2);
  m(1, 0) = 4.0;
  ConstMatrixView cv = m.view();
  EXPECT_EQ(cv(1, 0), 4.0);
}

TEST(Matrix, EmptyMatrixIsWellFormed) {
  Matrix m(0, 0);
  EXPECT_TRUE(m.empty());
  EXPECT_TRUE(m.view().empty());
}

}  // namespace
