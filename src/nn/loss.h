#ifndef DEEPAQP_NN_LOSS_H_
#define DEEPAQP_NN_LOSS_H_

#include <cmath>

#include "nn/matrix.h"

namespace deepaqp::nn {

/// Loss value plus gradient w.r.t. the network output that produced it.
struct LossResult {
  double value = 0.0;
  Matrix grad;  // dL/d(output), same shape as the output.

  /// Divergence sentinel: the loss value is a usable training signal.
  bool finite() const { return std::isfinite(value); }
};

/// Numerically-stable binary cross-entropy on logits, summed over features
/// and averaged over the batch:
///   L = mean_r sum_c [ max(z,0) - z*t + log(1 + exp(-|z|)) ].
/// Gradient is (sigmoid(z) - t) / batch. This is the VAE's reconstruction
/// term E[log P(X|z)] for Bernoulli-parameterized decoders.
LossResult BceWithLogits(const Matrix& logits, const Matrix& targets);

/// Mean squared error, 0.5 * mean_r sum_c (y - t)^2; gradient (y - t)/batch.
LossResult MeanSquaredError(const Matrix& output, const Matrix& targets);

/// Closed-form KL divergence of N(mu, diag(exp(logvar))) from N(0, I),
/// summed over latent dimensions, averaged over the batch:
///   KL = -0.5 * mean_r sum_c (1 + logvar - mu^2 - exp(logvar)).
/// `grad` of the returned LossResult is dKL/dmu; dKL/dlogvar is written to
/// `grad_logvar`.
LossResult GaussianKl(const Matrix& mu, const Matrix& logvar,
                      Matrix* grad_logvar);

/// Per-example, per-feature Bernoulli log-likelihood sum log p(x|logits)
/// (no batch averaging): column vector of size batch x 1, each row the
/// double sum over features of t*z - softplus(z) with the softplus from
/// SoftplusVec (|error| < 5e-7 per feature). Used for the
/// importance-weighted log p(x,z) estimates in variational rejection
/// sampling.
Matrix BernoulliLogLikelihoodRows(const Matrix& logits,
                                  const Matrix& targets);

/// Row-wise log N(x; mu, diag(exp(logvar))) (batch x 1).
Matrix GaussianLogDensityRows(const Matrix& x, const Matrix& mu,
                              const Matrix& logvar);

/// Row-wise log N(x; 0, I) (batch x 1).
Matrix StandardNormalLogDensityRows(const Matrix& x);

}  // namespace deepaqp::nn

#endif  // DEEPAQP_NN_LOSS_H_
