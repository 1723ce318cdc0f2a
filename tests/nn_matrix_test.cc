#include "nn/matrix.h"
#include "util/rng.h"

#include <gtest/gtest.h>

namespace deepaqp::nn {
namespace {

Matrix Make(size_t r, size_t c, std::vector<float> vals) {
  Matrix m(r, c);
  for (size_t i = 0; i < vals.size(); ++i) m.data()[i] = vals[i];
  return m;
}

TEST(MatrixTest, BasicAccess) {
  Matrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.At(1, 2), 1.5f);
  m.At(0, 1) = 7.0f;
  EXPECT_EQ(m.Row(0)[1], 7.0f);
  m.Zero();
  EXPECT_EQ(m.At(0, 1), 0.0f);
}

TEST(MatrixTest, GemmNoTranspose) {
  // [1 2; 3 4] @ [5 6; 7 8] = [19 22; 43 50]
  Matrix a = Make(2, 2, {1, 2, 3, 4});
  Matrix b = Make(2, 2, {5, 6, 7, 8});
  Matrix c;
  Gemm(a, false, b, false, 1.0f, 0.0f, &c);
  EXPECT_EQ(c.At(0, 0), 19.0f);
  EXPECT_EQ(c.At(0, 1), 22.0f);
  EXPECT_EQ(c.At(1, 0), 43.0f);
  EXPECT_EQ(c.At(1, 1), 50.0f);
}

TEST(MatrixTest, GemmTransposeA) {
  // A^T @ B with A 2x3: result 3x2.
  Matrix a = Make(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix b = Make(2, 2, {1, 0, 0, 1});
  Matrix c;
  Gemm(a, true, b, false, 1.0f, 0.0f, &c);
  ASSERT_EQ(c.rows(), 3u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_EQ(c.At(0, 0), 1.0f);
  EXPECT_EQ(c.At(0, 1), 4.0f);
  EXPECT_EQ(c.At(2, 1), 6.0f);
}

TEST(MatrixTest, GemmTransposeB) {
  Matrix a = Make(1, 3, {1, 2, 3});
  Matrix b = Make(2, 3, {1, 1, 1, 2, 2, 2});  // b^T is 3x2
  Matrix c;
  Gemm(a, false, b, true, 1.0f, 0.0f, &c);
  ASSERT_EQ(c.rows(), 1u);
  ASSERT_EQ(c.cols(), 2u);
  EXPECT_EQ(c.At(0, 0), 6.0f);
  EXPECT_EQ(c.At(0, 1), 12.0f);
}

TEST(MatrixTest, GemmBothTransposed) {
  Matrix a = Make(2, 3, {1, 2, 3, 4, 5, 6});  // a^T is 3x2
  Matrix b = Make(4, 2, {1, 0, 0, 1, 1, 1, 2, 2});  // b^T is 2x4
  Matrix c;
  Gemm(a, true, b, true, 1.0f, 0.0f, &c);
  ASSERT_EQ(c.rows(), 3u);
  ASSERT_EQ(c.cols(), 4u);
  // c[i][j] = sum_k a[k][i] * b[j][k]
  EXPECT_EQ(c.At(0, 0), 1.0f * 1 + 4.0f * 0);
  EXPECT_EQ(c.At(1, 3), 2.0f * 2 + 5.0f * 2);
}

TEST(MatrixTest, GemmAlphaBetaAccumulate) {
  Matrix a = Make(1, 1, {2});
  Matrix b = Make(1, 1, {3});
  Matrix c = Make(1, 1, {10});
  Gemm(a, false, b, false, 2.0f, 1.0f, &c);  // c = 2*6 + 10
  EXPECT_EQ(c.At(0, 0), 22.0f);
  Gemm(a, false, b, false, 1.0f, 0.5f, &c);  // c = 6 + 11
  EXPECT_EQ(c.At(0, 0), 17.0f);
}

TEST(MatrixTest, GemmMatchesNaiveOnRandom) {
  util::Rng rng(3);
  Matrix a(7, 5), b(5, 9);
  a.RandomizeGaussian(rng, 1.0f);
  b.RandomizeGaussian(rng, 1.0f);
  Matrix c;
  Gemm(a, false, b, false, 1.0f, 0.0f, &c);
  for (size_t i = 0; i < 7; ++i) {
    for (size_t j = 0; j < 9; ++j) {
      float acc = 0;
      for (size_t k = 0; k < 5; ++k) acc += a.At(i, k) * b.At(k, j);
      EXPECT_NEAR(c.At(i, j), acc, 1e-4);
    }
  }
}

TEST(MatrixTest, AddRowBroadcastAndColumnSums) {
  Matrix m = Make(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix bias = Make(1, 3, {10, 20, 30});
  AddRowBroadcast(bias, &m);
  EXPECT_EQ(m.At(0, 0), 11.0f);
  EXPECT_EQ(m.At(1, 2), 36.0f);
  Matrix sums = ColumnSums(m);
  EXPECT_EQ(sums.At(0, 0), 25.0f);
  EXPECT_EQ(sums.At(0, 2), 69.0f);
}

TEST(MatrixTest, AxpyAndSumSquares) {
  Matrix a = Make(1, 2, {1, 2});
  Matrix b = Make(1, 2, {10, 20});
  Axpy(0.5f, b, &a);
  EXPECT_EQ(a.At(0, 0), 6.0f);
  EXPECT_EQ(a.At(0, 1), 12.0f);
  EXPECT_DOUBLE_EQ(SumSquares(a), 36.0 + 144.0);
}

TEST(MatrixTest, GatherRows) {
  Matrix m = Make(3, 2, {1, 2, 3, 4, 5, 6});
  Matrix g = m.GatherRows({2, 0, 2});
  ASSERT_EQ(g.rows(), 3u);
  EXPECT_EQ(g.At(0, 0), 5.0f);
  EXPECT_EQ(g.At(1, 1), 2.0f);
  EXPECT_EQ(g.At(2, 1), 6.0f);
}

TEST(MatrixTest, SerializeRoundTrip) {
  util::Rng rng(5);
  Matrix m(4, 6);
  m.RandomizeGaussian(rng, 2.0f);
  util::ByteWriter w;
  m.Serialize(w);
  util::ByteReader r(w.bytes());
  auto back = Matrix::Deserialize(r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->rows(), 4u);
  ASSERT_EQ(back->cols(), 6u);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(back->data()[i], m.data()[i]);
  }
}

TEST(MatrixTest, DeserializeRejectsCorruptPayload) {
  util::ByteWriter w;
  w.WriteU64(2);
  w.WriteU64(2);
  w.WriteF32Vector({1.0f});  // wrong length
  util::ByteReader r(w.bytes());
  EXPECT_FALSE(Matrix::Deserialize(r).ok());
}

}  // namespace
}  // namespace deepaqp::nn
