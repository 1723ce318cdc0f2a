#ifndef DEEPAQP_NN_MATRIX_H_
#define DEEPAQP_NN_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <vector>

#include "nn/aligned_buffer.h"
#include "util/serialize.h"

namespace deepaqp::util {
class Rng;  // util/rng.h; kept out of the explicit-ISA kernel TUs
}  // namespace deepaqp::util

namespace deepaqp::nn {

/// Dense row-major fp32 matrix — the tensor type of the NN substrate.
/// Batches are rows; features are columns. Kept deliberately simple: the
/// library's models are MLPs, so 2-D is sufficient and keeps every backward
/// pass auditable.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, float fill = 0.0f)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {
    assert(IsBufferAligned(data_.data()));
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  float& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* Row(size_t r) { return data_.data() + r * cols_; }
  const float* Row(size_t r) const { return data_.data() + r * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void Zero() { Fill(0.0f); }

  /// Reshapes to rows x cols without initializing: contents are
  /// unspecified afterwards (no zero-fill pass — callers that Resize must
  /// fully overwrite). Reuses the existing allocation when capacity
  /// suffices, which is what makes scratch-arena buffers allocation-free
  /// in steady state.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
    assert(IsBufferAligned(data_.data()));
  }

  /// Fills with N(0, stddev) entries.
  void RandomizeGaussian(util::Rng& rng, float stddev);

  /// Returns the subset of rows given by `indices` (minibatch gather).
  Matrix GatherRows(const std::vector<size_t>& indices) const;

  /// GatherRows into a caller-owned buffer (resized to indices.size() x
  /// cols); lets hot loops reuse one minibatch Matrix across iterations.
  void GatherRowsInto(const std::vector<size_t>& indices, Matrix* out) const;

  void Serialize(util::ByteWriter& w) const;
  static util::Result<Matrix> Deserialize(util::ByteReader& r);

 private:
  size_t rows_;
  size_t cols_;
  /// 64-byte-aligned storage (see nn/aligned_buffer.h): row 0 always sits
  /// on a cache-line boundary, so SIMD and int8 kernels may use aligned
  /// loads on the first row and never split a cache line on packed panels.
  AlignedVector<float> data_;
};

/// C = alpha * op(A) @ op(B) + beta * C, where op is optional transpose.
/// Shapes are checked; C is resized only when beta == 0. Dispatches to the
/// active kernel (see nn/kernels.h): the default cache-blocked kernel or
/// the naive reference. Either way the work layout is a pure function of
/// the shape and each output element keeps one fixed accumulation order,
/// so results are bit-identical at every thread count for a fixed kernel.
/// Implemented in kernels.cc.
void Gemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
          float alpha, float beta, Matrix* c);

/// C += A^T @ B, the minibatch weight-gradient product (A is batch x in,
/// B is batch x out). The batch is cut into fixed `shard_rows`-row shards;
/// shard partials are computed in parallel and reduced into C in ascending
/// shard order. The shard layout depends only on the batch size, so the
/// accumulated gradient is bit-identical at every thread count (per kernel
/// kind). Implemented in kernels.cc.
void ShardedGemmTN(const Matrix& a, const Matrix& b, Matrix* c,
                   size_t shard_rows = 64);

/// out[r, c] += bias[0, c] for every row. bias must be 1 x cols.
void AddRowBroadcast(const Matrix& bias, Matrix* out);

/// Column sums of `m` as a 1 x cols matrix (bias gradient).
Matrix ColumnSums(const Matrix& m);

/// a += scale * b (shapes must match).
void Axpy(float scale, const Matrix& b, Matrix* a);

/// Element-wise sum of squares (for gradient-norm diagnostics).
double SumSquares(const Matrix& m);

/// True when every entry is finite (divergence sentinel for trainers).
bool AllFinite(const Matrix& m);

}  // namespace deepaqp::nn

#endif  // DEEPAQP_NN_MATRIX_H_
