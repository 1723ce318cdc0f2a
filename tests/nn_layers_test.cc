#include "nn/layers.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "nn/kernels.h"
#include "nn/loss.h"

namespace deepaqp::nn {
namespace {

/// Central-difference gradient check: perturbs each parameter scalar and
/// compares the numeric dL/dp against the backprop gradient.
void CheckParameterGradients(Layer& layer, const Matrix& input,
                             const std::function<LossResult(const Matrix&)>&
                                 loss_fn,
                             float tol) {
  std::vector<Parameter*> params;
  layer.CollectParameters(&params);
  for (Parameter* p : params) p->ZeroGrad();

  Matrix out = layer.Forward(input);
  LossResult loss = loss_fn(out);
  layer.Backward(loss.grad);

  const float eps = 1e-3f;
  for (Parameter* p : params) {
    for (size_t i = 0; i < p->value.size(); i += 7) {  // spot-check stride
      const float orig = p->value.data()[i];
      p->value.data()[i] = orig + eps;
      const double up = loss_fn(layer.Forward(input)).value;
      p->value.data()[i] = orig - eps;
      const double down = loss_fn(layer.Forward(input)).value;
      p->value.data()[i] = orig;
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(p->grad.data()[i], numeric, tol)
          << "param scalar " << i;
    }
  }
}

/// Gradient check w.r.t. the layer input.
void CheckInputGradients(Layer& layer, Matrix input,
                         const std::function<LossResult(const Matrix&)>&
                             loss_fn,
                         float tol) {
  std::vector<Parameter*> params;
  layer.CollectParameters(&params);
  for (Parameter* p : params) p->ZeroGrad();
  Matrix out = layer.Forward(input);
  LossResult loss = loss_fn(out);
  Matrix dinput = layer.Backward(loss.grad);

  const float eps = 1e-3f;
  for (size_t i = 0; i < input.size(); i += 5) {
    const float orig = input.data()[i];
    input.data()[i] = orig + eps;
    const double up = loss_fn(layer.Forward(input)).value;
    input.data()[i] = orig - eps;
    const double down = loss_fn(layer.Forward(input)).value;
    input.data()[i] = orig;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(dinput.data()[i], numeric, tol) << "input scalar " << i;
  }
}

Matrix RandomMatrix(size_t r, size_t c, uint64_t seed, float scale = 1.0f) {
  util::Rng rng(seed);
  Matrix m(r, c);
  m.RandomizeGaussian(rng, scale);
  return m;
}

LossResult SumLoss(const Matrix& out) {
  // L = sum of entries; grad = all ones. Simple and non-degenerate.
  LossResult r;
  r.grad = Matrix(out.rows(), out.cols(), 1.0f);
  double total = 0.0;
  for (size_t i = 0; i < out.size(); ++i) total += out.data()[i];
  r.value = total;
  return r;
}

LossResult HalfSquareLoss(const Matrix& out) {
  LossResult r;
  r.grad = out;
  double total = 0.0;
  for (size_t i = 0; i < out.size(); ++i) {
    total += 0.5 * static_cast<double>(out.data()[i]) * out.data()[i];
  }
  r.value = total;
  return r;
}

TEST(LinearTest, ForwardMatchesManual) {
  util::Rng rng(1);
  Linear lin(2, 2, rng);
  lin.weight.value.At(0, 0) = 1;
  lin.weight.value.At(0, 1) = 2;
  lin.weight.value.At(1, 0) = 3;
  lin.weight.value.At(1, 1) = 4;
  lin.bias.value.At(0, 0) = 10;
  lin.bias.value.At(0, 1) = 20;
  Matrix x(1, 2);
  x.At(0, 0) = 1;
  x.At(0, 1) = 1;
  Matrix y = lin.Forward(x);
  EXPECT_EQ(y.At(0, 0), 14.0f);
  EXPECT_EQ(y.At(0, 1), 26.0f);
}

TEST(LinearTest, GradientCheck) {
  util::Rng rng(2);
  Linear lin(4, 3, rng);
  Matrix x = RandomMatrix(5, 4, 7);
  CheckParameterGradients(lin, x, HalfSquareLoss, 2e-2f);
  CheckInputGradients(lin, x, HalfSquareLoss, 2e-2f);
}

TEST(ReluTest, ForwardAndGradient) {
  Relu relu;
  Matrix x(1, 4);
  x.At(0, 0) = -1;
  x.At(0, 1) = 2;
  x.At(0, 2) = 0;
  x.At(0, 3) = -3;
  Matrix y = relu.Forward(x);
  EXPECT_EQ(y.At(0, 0), 0.0f);
  EXPECT_EQ(y.At(0, 1), 2.0f);
  Matrix g(1, 4, 1.0f);
  Matrix dx = relu.Backward(g);
  EXPECT_EQ(dx.At(0, 0), 0.0f);
  EXPECT_EQ(dx.At(0, 1), 1.0f);
  EXPECT_EQ(dx.At(0, 3), 0.0f);
}

// The activations' IEEE edge cases, pinned bit for bit: -0, +0, NaN, +inf,
// -inf, the smallest denormal of each sign, and +-1. With a slope of 0.25
// every leaky output is a literal (-denorm_min * 0.25 rounds to -0).
constexpr float kEdgeSlope = 0.25f;
const std::vector<uint32_t> kEdgeInputs = {
    0x80000000u, 0x00000000u, 0x7fc00000u, 0x7f800000u, 0xff800000u,
    0x00000001u, 0x80000001u, 0x3f800000u, 0xbf800000u};
const std::vector<uint32_t> kReluEdgeOutputs = {
    0x00000000u, 0x00000000u, 0x7fc00000u, 0x7f800000u, 0x00000000u,
    0x00000001u, 0x00000000u, 0x3f800000u, 0x00000000u};
const std::vector<uint32_t> kLeakyEdgeOutputs = {
    0x80000000u, 0x00000000u, 0x7fc00000u, 0x7f800000u, 0xff800000u,
    0x00000001u, 0x80000000u, 0x3f800000u, 0xbe800000u};

Matrix FromBits(const std::vector<uint32_t>& bits) {
  Matrix m(1, bits.size());
  std::memcpy(m.data(), bits.data(), bits.size() * sizeof(float));
  return m;
}

std::vector<uint32_t> ToBits(const Matrix& m) {
  std::vector<uint32_t> bits(m.size());
  std::memcpy(bits.data(), m.data(), bits.size() * sizeof(float));
  return bits;
}

using BitsFn =
    std::function<std::vector<uint32_t>(const std::vector<uint32_t>&)>;

/// Runs `fn` on each edge input alone, which takes a loop's scalar path,
/// and on the inputs repeated 8 times, which puts every value in vector
/// lanes, and compares each result with `want` bit for bit.
void ExpectEdgeBits(const BitsFn& fn, const std::vector<uint32_t>& want) {
  for (size_t i = 0; i < kEdgeInputs.size(); ++i) {
    EXPECT_EQ(fn({kEdgeInputs[i]}), std::vector<uint32_t>{want[i]})
        << "input " << i;
  }
  std::vector<uint32_t> in;
  std::vector<uint32_t> out;
  for (int copy = 0; copy < 8; ++copy) {
    in.insert(in.end(), kEdgeInputs.begin(), kEdgeInputs.end());
    out.insert(out.end(), want.begin(), want.end());
  }
  EXPECT_EQ(fn(in), out);
}

BitsFn ApplyActivationBits(Activation act) {
  return [act](const std::vector<uint32_t>& in) {
    Matrix x = FromBits(in);
    ApplyActivation(act, kEdgeSlope, x.data(), x.size());
    return ToBits(x);
  };
}

TEST(ActivationEdgeTest, ApplyActivationRelu) {
  ExpectEdgeBits(ApplyActivationBits(Activation::kRelu), kReluEdgeOutputs);
}

TEST(ActivationEdgeTest, ApplyActivationLeakyRelu) {
  ExpectEdgeBits(ApplyActivationBits(Activation::kLeakyRelu),
                 kLeakyEdgeOutputs);
}

TEST(ActivationEdgeTest, ReluLayerForwardAndBackwardMask) {
  // The layer zeroes NaN (its mask is x > 0), unlike ApplyActivation.
  ExpectEdgeBits(
      [](const std::vector<uint32_t>& in) {
        Relu relu;
        return ToBits(relu.Forward(FromBits(in)));
      },
      {0x00000000u, 0x00000000u, 0x00000000u, 0x7f800000u, 0x00000000u,
       0x00000001u, 0x00000000u, 0x3f800000u, 0x00000000u});
  // -2 * mask: -2 where the mask is 1, -0 where it is 0.
  ExpectEdgeBits(
      [](const std::vector<uint32_t>& in) {
        Relu relu;
        relu.Forward(FromBits(in));
        return ToBits(relu.Backward(Matrix(1, in.size(), -2.0f)));
      },
      {0x80000000u, 0x80000000u, 0x80000000u, 0xc0000000u, 0x80000000u,
       0xc0000000u, 0x80000000u, 0xc0000000u, 0x80000000u});
  // A smaller second call reuses the mask storage and rewrites all of it.
  Relu relu;
  relu.Forward(FromBits(kEdgeInputs));
  EXPECT_EQ(ToBits(relu.Forward(FromBits({0x3f800000u, 0xbf800000u}))),
            (std::vector<uint32_t>{0x3f800000u, 0x00000000u}));
  EXPECT_EQ(ToBits(relu.Backward(Matrix(1, 2, -2.0f))),
            (std::vector<uint32_t>{0xc0000000u, 0x80000000u}));
}

TEST(ActivationEdgeTest, LeakyReluLayerForwardAndBackward) {
  ExpectEdgeBits(
      [](const std::vector<uint32_t>& in) {
        LeakyRelu leaky(kEdgeSlope);
        return ToBits(leaky.Forward(FromBits(in)));
      },
      kLeakyEdgeOutputs);
  // -2 * slope = -0.5 where the input is < 0 (not for -0 or NaN), else -2.
  ExpectEdgeBits(
      [](const std::vector<uint32_t>& in) {
        LeakyRelu leaky(kEdgeSlope);
        leaky.Forward(FromBits(in));
        return ToBits(leaky.Backward(Matrix(1, in.size(), -2.0f)));
      },
      {0xc0000000u, 0xc0000000u, 0xc0000000u, 0xc0000000u, 0xbf000000u,
       0xc0000000u, 0xbf000000u, 0xc0000000u, 0xbf000000u});
}

TEST(LeakyReluTest, GradientCheck) {
  LeakyRelu lr(0.1f);
  Matrix x = RandomMatrix(3, 6, 11);
  CheckInputGradients(lr, x, HalfSquareLoss, 2e-2f);
}

TEST(TanhTest, GradientCheck) {
  Tanh tanh_layer;
  Matrix x = RandomMatrix(3, 5, 13, 0.8f);
  CheckInputGradients(tanh_layer, x, HalfSquareLoss, 2e-2f);
}

TEST(SigmoidTest, GradientCheck) {
  Sigmoid sig;
  Matrix x = RandomMatrix(3, 5, 17, 0.8f);
  CheckInputGradients(sig, x, HalfSquareLoss, 2e-2f);
}

TEST(SequentialTest, GradientCheckThroughMlp) {
  util::Rng rng(19);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(3, 8, rng));
  seq.Add(std::make_unique<Tanh>());
  seq.Add(std::make_unique<Linear>(8, 2, rng));
  Matrix x = RandomMatrix(4, 3, 23, 0.5f);
  CheckParameterGradients(seq, x, HalfSquareLoss, 3e-2f);
  CheckInputGradients(seq, x, HalfSquareLoss, 3e-2f);
}

TEST(SequentialTest, BceGradientCheck) {
  util::Rng rng(29);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(4, 6, rng));
  seq.Add(std::make_unique<Relu>());
  seq.Add(std::make_unique<Linear>(6, 4, rng));
  Matrix x = RandomMatrix(5, 4, 31, 0.5f);
  Matrix targets(5, 4);
  util::Rng trng(37);
  for (size_t i = 0; i < targets.size(); ++i) {
    targets.data()[i] = trng.Bernoulli(0.5) ? 1.0f : 0.0f;
  }
  auto loss_fn = [&targets](const Matrix& out) {
    return BceWithLogits(out, targets);
  };
  CheckParameterGradients(seq, x, loss_fn, 2e-2f);
}

TEST(SequentialTest, SumLossGradients) {
  util::Rng rng(41);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(2, 3, rng));
  seq.Add(std::make_unique<Sigmoid>());
  Matrix x = RandomMatrix(2, 2, 43);
  CheckParameterGradients(seq, x, SumLoss, 2e-2f);
}

TEST(SequentialTest, MakeMlpTrunkShape) {
  util::Rng rng(47);
  auto trunk = MakeMlpTrunk(10, 16, 3, rng);
  EXPECT_EQ(trunk->num_layers(), 6u);  // 3 x (Linear + ReLU)
  Matrix x = RandomMatrix(2, 10, 53);
  Matrix y = trunk->Forward(x);
  EXPECT_EQ(y.cols(), 16u);
  EXPECT_EQ(y.rows(), 2u);
}

TEST(SequentialTest, CountParameters) {
  util::Rng rng(59);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(3, 4, rng));  // 12 + 4
  seq.Add(std::make_unique<Relu>());
  seq.Add(std::make_unique<Linear>(4, 2, rng));  // 8 + 2
  EXPECT_EQ(CountParameters(seq), 26u);
}

TEST(SequentialTest, SerializeRoundTripPreservesOutputs) {
  util::Rng rng(61);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(5, 7, rng));
  seq.Add(std::make_unique<Relu>());
  seq.Add(std::make_unique<LeakyRelu>(0.15f));
  seq.Add(std::make_unique<Linear>(7, 3, rng));
  seq.Add(std::make_unique<Tanh>());

  util::ByteWriter w;
  seq.Serialize(w);
  util::ByteReader r(w.bytes());
  auto back = Sequential::Deserialize(r);
  ASSERT_TRUE(back.ok());

  Matrix x = RandomMatrix(4, 5, 67);
  Matrix y1 = seq.Forward(x);
  Matrix y2 = (*back)->Forward(x);
  ASSERT_EQ(y1.size(), y2.size());
  for (size_t i = 0; i < y1.size(); ++i) {
    EXPECT_FLOAT_EQ(y1.data()[i], y2.data()[i]);
  }
}

TEST(SequentialTest, DeserializeRejectsUnknownLayer) {
  util::ByteWriter w;
  w.WriteU64(1);
  w.WriteString("flux_capacitor");
  util::ByteReader r(w.bytes());
  EXPECT_FALSE(Sequential::Deserialize(r).ok());
}

}  // namespace
}  // namespace deepaqp::nn
