#include "nn/optimizer.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/kernels.h"
#include "nn/loss.h"
#include "util/rng.h"

namespace deepaqp::nn {
namespace {

/// Minimizes f(w) = 0.5 * ||w - target||^2 with the given optimizer factory;
/// returns the final squared distance to the target.
template <typename MakeOpt>
double DriveQuadratic(MakeOpt make_opt, int steps) {
  Parameter w;
  w.value = Matrix(1, 4);
  w.value.At(0, 0) = 5.0f;
  w.value.At(0, 1) = -3.0f;
  w.value.At(0, 2) = 0.5f;
  w.value.At(0, 3) = 2.0f;
  w.ZeroGrad();
  Matrix target(1, 4);
  target.At(0, 0) = 1.0f;
  target.At(0, 1) = 1.0f;
  target.At(0, 2) = 1.0f;
  target.At(0, 3) = 1.0f;

  auto opt = make_opt(std::vector<Parameter*>{&w});
  for (int i = 0; i < steps; ++i) {
    opt->ZeroGrad();
    for (size_t j = 0; j < 4; ++j) {
      w.grad.At(0, j) = w.value.At(0, j) - target.At(0, j);
    }
    opt->Step();
  }
  double dist = 0.0;
  for (size_t j = 0; j < 4; ++j) {
    const double d = w.value.At(0, j) - target.At(0, j);
    dist += d * d;
  }
  return dist;
}

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  const double dist = DriveQuadratic(
      [](std::vector<Parameter*> p) {
        return std::make_unique<Sgd>(std::move(p), 0.1f);
      },
      200);
  EXPECT_LT(dist, 1e-6);
}

TEST(OptimizerTest, SgdMomentumConverges) {
  const double dist = DriveQuadratic(
      [](std::vector<Parameter*> p) {
        return std::make_unique<Sgd>(std::move(p), 0.05f, 0.9f);
      },
      300);
  EXPECT_LT(dist, 1e-6);
}

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  const double dist = DriveQuadratic(
      [](std::vector<Parameter*> p) {
        return std::make_unique<Adam>(std::move(p), 0.1f);
      },
      500);
  EXPECT_LT(dist, 1e-5);
}

TEST(OptimizerTest, RmsPropConvergesOnQuadratic) {
  const double dist = DriveQuadratic(
      [](std::vector<Parameter*> p) {
        return std::make_unique<RmsProp>(std::move(p), 0.05f);
      },
      800);
  EXPECT_LT(dist, 1e-4);
}

TEST(OptimizerTest, ZeroGradClearsAccumulation) {
  Parameter w;
  w.value = Matrix(1, 1);
  w.ZeroGrad();
  w.grad.At(0, 0) = 5.0f;
  Sgd opt({&w}, 1.0f);
  opt.ZeroGrad();
  EXPECT_EQ(w.grad.At(0, 0), 0.0f);
}

TEST(OptimizerTest, ClipParametersBoundsValues) {
  Parameter w;
  w.value = Matrix(1, 3);
  w.value.At(0, 0) = 2.0f;
  w.value.At(0, 1) = -0.5f;
  w.value.At(0, 2) = -9.0f;
  w.ZeroGrad();
  ClipParameters({&w}, 1.0f);
  EXPECT_EQ(w.value.At(0, 0), 1.0f);
  EXPECT_EQ(w.value.At(0, 1), -0.5f);
  EXPECT_EQ(w.value.At(0, 2), -1.0f);
}

TEST(OptimizerTest, ClipGradientNormRescales) {
  Parameter w;
  w.value = Matrix(1, 2);
  w.ZeroGrad();
  w.grad.At(0, 0) = 3.0f;
  w.grad.At(0, 1) = 4.0f;  // norm 5
  ClipGradientNorm({&w}, 1.0f);
  const double norm = std::sqrt(SumSquares(w.grad));
  EXPECT_NEAR(norm, 1.0, 1e-5);
  EXPECT_NEAR(w.grad.At(0, 0) / w.grad.At(0, 1), 0.75, 1e-5);
}

TEST(OptimizerTest, ClipGradientNormLeavesSmallGradients) {
  Parameter w;
  w.value = Matrix(1, 2);
  w.ZeroGrad();
  w.grad.At(0, 0) = 0.1f;
  ClipGradientNorm({&w}, 1.0f);
  EXPECT_FLOAT_EQ(w.grad.At(0, 0), 0.1f);
}

TEST(LossTest, BceMatchesManualComputation) {
  Matrix logits(1, 2);
  logits.At(0, 0) = 0.0f;
  logits.At(0, 1) = 2.0f;
  Matrix targets(1, 2);
  targets.At(0, 0) = 1.0f;
  targets.At(0, 1) = 0.0f;
  auto loss = BceWithLogits(logits, targets);
  // -log(0.5) + -log(1 - sigmoid(2))
  const double expected = -std::log(0.5) - std::log(1.0 - 1.0 / (1.0 + std::exp(-2.0)));
  EXPECT_NEAR(loss.value, expected, 1e-6);
  EXPECT_NEAR(loss.grad.At(0, 0), 0.5 - 1.0, 1e-6);
}

TEST(LossTest, BceGradientNumericCheck) {
  util::Rng rng(3);
  Matrix logits(3, 4);
  logits.RandomizeGaussian(rng, 1.0f);
  Matrix targets(3, 4);
  for (size_t i = 0; i < targets.size(); ++i) {
    targets.data()[i] = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  }
  auto loss = BceWithLogits(logits, targets);
  const float eps = 1e-3f;
  for (size_t i = 0; i < logits.size(); ++i) {
    Matrix up = logits, down = logits;
    up.data()[i] += eps;
    down.data()[i] -= eps;
    const double numeric = (BceWithLogits(up, targets).value -
                            BceWithLogits(down, targets).value) /
                           (2.0 * eps);
    EXPECT_NEAR(loss.grad.data()[i], numeric, 1e-3);
  }
}

TEST(LossTest, MseGradientNumericCheck) {
  util::Rng rng(5);
  Matrix out(2, 3), targets(2, 3);
  out.RandomizeGaussian(rng, 1.0f);
  targets.RandomizeGaussian(rng, 1.0f);
  auto loss = MeanSquaredError(out, targets);
  const float eps = 1e-3f;
  for (size_t i = 0; i < out.size(); ++i) {
    Matrix up = out, down = out;
    up.data()[i] += eps;
    down.data()[i] -= eps;
    const double numeric = (MeanSquaredError(up, targets).value -
                            MeanSquaredError(down, targets).value) /
                           (2.0 * eps);
    EXPECT_NEAR(loss.grad.data()[i], numeric, 1e-3);
  }
}

TEST(LossTest, GaussianKlZeroAtStandardNormal) {
  Matrix mu(2, 3), logvar(2, 3);
  Matrix grad_logvar;
  auto kl = GaussianKl(mu, logvar, &grad_logvar);
  EXPECT_NEAR(kl.value, 0.0, 1e-9);
  for (size_t i = 0; i < grad_logvar.size(); ++i) {
    EXPECT_NEAR(kl.grad.data()[i], 0.0, 1e-9);
    EXPECT_NEAR(grad_logvar.data()[i], 0.0, 1e-9);
  }
}

TEST(LossTest, GaussianKlGradientNumericCheck) {
  util::Rng rng(7);
  Matrix mu(2, 3), logvar(2, 3);
  mu.RandomizeGaussian(rng, 1.0f);
  logvar.RandomizeGaussian(rng, 0.5f);
  Matrix grad_logvar;
  auto kl = GaussianKl(mu, logvar, &grad_logvar);
  const float eps = 1e-3f;
  Matrix dummy;
  for (size_t i = 0; i < mu.size(); ++i) {
    Matrix up = mu, down = mu;
    up.data()[i] += eps;
    down.data()[i] -= eps;
    const double numeric = (GaussianKl(up, logvar, &dummy).value -
                            GaussianKl(down, logvar, &dummy).value) /
                           (2.0 * eps);
    EXPECT_NEAR(kl.grad.data()[i], numeric, 1e-3);
  }
  for (size_t i = 0; i < logvar.size(); ++i) {
    Matrix up = logvar, down = logvar;
    up.data()[i] += eps;
    down.data()[i] -= eps;
    const double numeric = (GaussianKl(mu, up, &dummy).value -
                            GaussianKl(mu, down, &dummy).value) /
                           (2.0 * eps);
    EXPECT_NEAR(grad_logvar.data()[i], numeric, 1e-3);
  }
}

TEST(LossTest, BernoulliRowLikelihoodConsistentWithBce) {
  util::Rng rng(9);
  Matrix logits(4, 5), targets(4, 5);
  logits.RandomizeGaussian(rng, 1.0f);
  for (size_t i = 0; i < targets.size(); ++i) {
    targets.data()[i] = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
  }
  Matrix rows = BernoulliLogLikelihoodRows(logits, targets);
  double total = 0.0;
  for (size_t r = 0; r < rows.rows(); ++r) total += rows.At(r, 0);
  // Sum of row log-likelihoods == -batch * mean BCE.
  const double bce = BceWithLogits(logits, targets).value;
  EXPECT_NEAR(-total / 4.0, bce, 1e-4);
}

TEST(LossTest, BernoulliRowLikelihoodMatchesTheScalarLoop) {
  // Widths around the 8-lane vector body, on every kernel the CPU has; the
  // reference is the loop BernoulliLogLikelihoodRows ran before it took a
  // vectorized softplus. A NaN logit makes its row NaN.
  std::vector<GemmKernelKind> kinds = {GemmKernelKind::kBlocked};
  if (SimdKernelAvailable()) kinds.push_back(GemmKernelKind::kSimd);
  const GemmKernelKind prev = ActiveGemmKernel();
  for (GemmKernelKind kind : kinds) {
    SetGemmKernel(kind);
    for (size_t width : {1u, 7u, 8u, 47u, 129u}) {
      SCOPED_TRACE(std::string(GemmKernelKindName(kind)) + " width " +
                   std::to_string(width));
      util::Rng rng(width);
      Matrix logits(9, width);
      Matrix targets(9, width);
      logits.RandomizeGaussian(rng, 6.0f);
      for (size_t i = 0; i < targets.size(); ++i) {
        targets.data()[i] = rng.Bernoulli(0.5) ? 1.0f : 0.0f;
      }
      logits.At(8, width - 1) = std::nanf("");
      const Matrix got = BernoulliLogLikelihoodRows(logits, targets);
      for (size_t r = 0; r < 8; ++r) {
        double want = 0.0;
        for (size_t c = 0; c < width; ++c) {
          const float z = logits.At(r, c);
          want -= std::max(z, 0.0f) - z * targets.At(r, c) +
                  std::log1p(std::exp(-std::abs(z)));
        }
        // 5e-7 per softplus, plus float rounding of each term and the sum.
        EXPECT_NEAR(got.At(r, 0), want, 1e-6 * (width + std::abs(want)));
      }
      EXPECT_TRUE(std::isnan(got.At(8, 0)));
    }
  }
  SetGemmKernel(prev);
}

TEST(LossTest, GaussianRowDensities) {
  Matrix x(1, 2), mu(1, 2), logvar(1, 2);
  x.At(0, 0) = 1.0f;
  x.At(0, 1) = -1.0f;
  Matrix rows = GaussianLogDensityRows(x, mu, logvar);
  Matrix std_rows = StandardNormalLogDensityRows(x);
  // With mu=0, logvar=0 the two must agree.
  EXPECT_NEAR(rows.At(0, 0), std_rows.At(0, 0), 1e-5);
  const double expected = -0.5 * (2 * std::log(2 * M_PI) + 2.0);
  EXPECT_NEAR(rows.At(0, 0), expected, 1e-4);
}

}  // namespace
}  // namespace deepaqp::nn
