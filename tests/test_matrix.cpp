#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace jaal::linalg {
namespace {

TEST(Matrix, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
}

TEST(Matrix, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), 0.0);
  }
}

TEST(Matrix, DataConstructorValidatesSize) {
  EXPECT_NO_THROW(Matrix(2, 2, {1, 2, 3, 4}));
  EXPECT_THROW(Matrix(2, 2, {1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, InitializerListLayout) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(0, 2), 3.0);
  EXPECT_EQ(m(1, 0), 4.0);
}

TEST(Matrix, InitializerListRejectsRagged) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW((void)m.at(2, 0), std::out_of_range);
  EXPECT_THROW((void)m.at(0, 2), std::out_of_range);
  EXPECT_NO_THROW((void)m.at(1, 1));
}

TEST(Matrix, RowViewWritesThrough) {
  Matrix m(2, 3);
  auto row = m.row(1);
  row[2] = 7.5;
  EXPECT_EQ(m(1, 2), 7.5);
  EXPECT_THROW((void)m.row(2), std::out_of_range);
}

TEST(Matrix, Transpose) {
  Matrix m{{1, 2, 3}, {4, 5, 6}};
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_EQ(t(0, 1), 4.0);
  EXPECT_EQ(t(2, 0), 3.0);
  EXPECT_EQ(t.transposed(), m);
}

TEST(Matrix, Multiply) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = a * b;
  EXPECT_EQ(c, (Matrix{{19, 22}, {43, 50}}));
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(2, 3);
  EXPECT_THROW((void)(a * b), std::invalid_argument);
}

TEST(Matrix, MultiplyByIdentityIsNoop) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_EQ(a * Matrix::identity(3), a);
  EXPECT_EQ(Matrix::identity(2) * a, a);
}

TEST(Matrix, AddSubtractScale) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{4, 3}, {2, 1}};
  EXPECT_EQ(a + b, (Matrix{{5, 5}, {5, 5}}));
  EXPECT_EQ(a - a, Matrix(2, 2));
  EXPECT_EQ(a * 2.0, (Matrix{{2, 4}, {6, 8}}));
  EXPECT_THROW((void)(a + Matrix(3, 2)), std::invalid_argument);
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m{{3, 4}};
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(Matrix(4, 4).frobenius_norm(), 0.0);
}

TEST(Matrix, MaxAbsDiff) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{1, 2.5}, {3, 3}};
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 1.0);
  EXPECT_THROW((void)a.max_abs_diff(Matrix(1, 2)), std::invalid_argument);
}

TEST(Matrix, Diagonal) {
  const double d[] = {1.0, 2.0, 3.0};
  Matrix m = Matrix::diagonal(d);
  EXPECT_EQ(m, (Matrix{{1, 0, 0}, {0, 2, 0}, {0, 0, 3}}));
}

TEST(Matrix, TopRowsLeftCols) {
  Matrix m{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}};
  EXPECT_EQ(m.left_cols(2), (Matrix{{1, 2}, {4, 5}, {7, 8}}));
  EXPECT_THROW((void)m.left_cols(4), std::invalid_argument);
}

}  // namespace
}  // namespace jaal::linalg
