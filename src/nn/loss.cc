#include "nn/loss.h"

#include <cmath>
#include <vector>

#include "nn/kernels.h"
#include "util/logging.h"

namespace deepaqp::nn {

namespace {
constexpr double kLog2Pi = 1.8378770664093453;
}  // namespace

LossResult BceWithLogits(const Matrix& logits, const Matrix& targets) {
  DEEPAQP_CHECK_EQ(logits.rows(), targets.rows());
  DEEPAQP_CHECK_EQ(logits.cols(), targets.cols());
  const size_t batch = logits.rows();
  LossResult out;
  out.grad = Matrix(logits.rows(), logits.cols());
  double total = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (size_t i = 0; i < logits.size(); ++i) {
    const float z = logits.data()[i];
    const float t = targets.data()[i];
    total += std::max(z, 0.0f) - z * t + std::log1p(std::exp(-std::abs(z)));
    const float sig = 1.0f / (1.0f + std::exp(-z));
    out.grad.data()[i] = (sig - t) * inv_batch;
  }
  out.value = total / static_cast<double>(batch);
  return out;
}

LossResult MeanSquaredError(const Matrix& output, const Matrix& targets) {
  DEEPAQP_CHECK_EQ(output.rows(), targets.rows());
  DEEPAQP_CHECK_EQ(output.cols(), targets.cols());
  const size_t batch = output.rows();
  LossResult out;
  out.grad = Matrix(output.rows(), output.cols());
  double total = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (size_t i = 0; i < output.size(); ++i) {
    const float d = output.data()[i] - targets.data()[i];
    total += 0.5 * static_cast<double>(d) * d;
    out.grad.data()[i] = d * inv_batch;
  }
  out.value = total / static_cast<double>(batch);
  return out;
}

LossResult GaussianKl(const Matrix& mu, const Matrix& logvar,
                      Matrix* grad_logvar) {
  DEEPAQP_CHECK_EQ(mu.rows(), logvar.rows());
  DEEPAQP_CHECK_EQ(mu.cols(), logvar.cols());
  const size_t batch = mu.rows();
  LossResult out;
  out.grad = Matrix(mu.rows(), mu.cols());
  *grad_logvar = Matrix(mu.rows(), mu.cols());
  double total = 0.0;
  const float inv_batch = 1.0f / static_cast<float>(batch);
  for (size_t i = 0; i < mu.size(); ++i) {
    const float m = mu.data()[i];
    const float lv = logvar.data()[i];
    const float ev = std::exp(lv);
    total += -0.5 * (1.0f + lv - m * m - ev);
    out.grad.data()[i] = m * inv_batch;
    grad_logvar->data()[i] = 0.5f * (ev - 1.0f) * inv_batch;
  }
  out.value = total / static_cast<double>(batch);
  return out;
}

Matrix BernoulliLogLikelihoodRows(const Matrix& logits,
                                  const Matrix& targets) {
  DEEPAQP_CHECK_EQ(logits.rows(), targets.rows());
  DEEPAQP_CHECK_EQ(logits.cols(), targets.cols());
  // log p = t*z - softplus(z); the softplus of the whole matrix is one
  // vectorized pass.
  thread_local std::vector<float> softplus;
  if (softplus.size() < logits.size()) softplus.resize(logits.size());
  SoftplusVec(logits.data(), softplus.data(), logits.size());
  Matrix out(logits.rows(), 1);
  for (size_t r = 0; r < logits.rows(); ++r) {
    const float* z = logits.Row(r);
    const float* t = targets.Row(r);
    const float* sp = softplus.data() + r * logits.cols();
    double acc = 0.0;
    for (size_t c = 0; c < logits.cols(); ++c) acc += t[c] * z[c] - sp[c];
    out.At(r, 0) = static_cast<float>(acc);
  }
  return out;
}

Matrix GaussianLogDensityRows(const Matrix& x, const Matrix& mu,
                              const Matrix& logvar) {
  DEEPAQP_CHECK_EQ(x.rows(), mu.rows());
  DEEPAQP_CHECK_EQ(x.cols(), mu.cols());
  Matrix out(x.rows(), 1);
  for (size_t r = 0; r < x.rows(); ++r) {
    double acc = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) {
      const double lv = logvar.At(r, c);
      const double d = x.At(r, c) - mu.At(r, c);
      acc += -0.5 * (kLog2Pi + lv + d * d / std::exp(lv));
    }
    out.At(r, 0) = static_cast<float>(acc);
  }
  return out;
}

Matrix StandardNormalLogDensityRows(const Matrix& x) {
  Matrix out(x.rows(), 1);
  for (size_t r = 0; r < x.rows(); ++r) {
    double acc = 0.0;
    for (size_t c = 0; c < x.cols(); ++c) {
      const double v = x.At(r, c);
      acc += -0.5 * (kLog2Pi + v * v);
    }
    out.At(r, 0) = static_cast<float>(acc);
  }
  return out;
}

}  // namespace deepaqp::nn
