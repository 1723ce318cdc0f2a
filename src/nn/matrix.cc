#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/rng.h"

namespace deepaqp::nn {

void Matrix::RandomizeGaussian(util::Rng& rng, float stddev) {
  for (float& v : data_) {
    v = static_cast<float>(rng.Gaussian(0.0, stddev));
  }
}

Matrix Matrix::GatherRows(const std::vector<size_t>& indices) const {
  Matrix out(indices.size(), cols_);
  GatherRowsInto(indices, &out);
  return out;
}

void Matrix::GatherRowsInto(const std::vector<size_t>& indices,
                            Matrix* out) const {
  out->Resize(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    DEEPAQP_CHECK_LT(indices[i], rows_);
    std::copy(Row(indices[i]), Row(indices[i]) + cols_, out->Row(i));
  }
}

void Matrix::Serialize(util::ByteWriter& w) const {
  w.WriteU64(rows_);
  w.WriteU64(cols_);
  w.WriteF32Array(data_.data(), data_.size());
}

util::Result<Matrix> Matrix::Deserialize(util::ByteReader& r) {
  DEEPAQP_ASSIGN_OR_RETURN(uint64_t rows, r.ReadU64());
  DEEPAQP_ASSIGN_OR_RETURN(uint64_t cols, r.ReadU64());
  DEEPAQP_ASSIGN_OR_RETURN(std::vector<float> data, r.ReadF32Vector());
  if (data.size() != rows * cols) {
    return util::Status::InvalidArgument("matrix payload size mismatch");
  }
  Matrix m(rows, cols);
  std::copy(data.begin(), data.end(), m.data());
  return m;
}

// Gemm and ShardedGemmTN live in kernels.cc: they dispatch between the
// blocked kernel and the retained naive reference (nn/kernels.h).

void AddRowBroadcast(const Matrix& bias, Matrix* out) {
  DEEPAQP_CHECK_EQ(bias.rows(), 1u);
  DEEPAQP_CHECK_EQ(bias.cols(), out->cols());
  for (size_t r = 0; r < out->rows(); ++r) {
    float* row = out->Row(r);
    const float* b = bias.Row(0);
    for (size_t c = 0; c < out->cols(); ++c) row[c] += b[c];
  }
}

Matrix ColumnSums(const Matrix& m) {
  Matrix out(1, m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.Row(r);
    float* o = out.Row(0);
    for (size_t c = 0; c < m.cols(); ++c) o[c] += row[c];
  }
  return out;
}

void Axpy(float scale, const Matrix& b, Matrix* a) {
  DEEPAQP_CHECK_EQ(a->rows(), b.rows());
  DEEPAQP_CHECK_EQ(a->cols(), b.cols());
  for (size_t i = 0; i < a->size(); ++i) {
    a->data()[i] += scale * b.data()[i];
  }
}

double SumSquares(const Matrix& m) {
  double acc = 0.0;
  for (size_t i = 0; i < m.size(); ++i) {
    acc += static_cast<double>(m.data()[i]) * m.data()[i];
  }
  return acc;
}

bool AllFinite(const Matrix& m) {
  for (size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m.data()[i])) return false;
  }
  return true;
}

}  // namespace deepaqp::nn
