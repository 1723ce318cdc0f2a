#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"
#include "util/logging.h"

namespace deepaqp::nn {

Linear::Linear(size_t in_dim, size_t out_dim, util::Rng& rng) {
  weight.value = Matrix(in_dim, out_dim);
  const float stddev =
      std::sqrt(2.0f / static_cast<float>(in_dim + out_dim));
  weight.value.RandomizeGaussian(rng, stddev);
  bias.value = Matrix(1, out_dim);
  weight.ZeroGrad();
  bias.ZeroGrad();
}

std::unique_ptr<Linear> Linear::WithHeInit(size_t in_dim, size_t out_dim,
                                           util::Rng& rng) {
  auto layer = std::make_unique<Linear>(in_dim, out_dim, rng);
  const float stddev = std::sqrt(2.0f / static_cast<float>(in_dim));
  layer->weight.value.RandomizeGaussian(rng, stddev);
  return layer;
}

Matrix Linear::Forward(const Matrix& input) {
  input_cache_ = input;
  Matrix out;
  // Fused x W + b: the bias is added per row block while it is cache-hot
  // instead of in a second full pass. Same arithmetic and order as
  // Gemm + AddRowBroadcast (bias after the complete k accumulation).
  FusedLinearForward(input, weight.value, bias.value, Activation::kIdentity,
                     0.0f, &out);
  return out;
}

Matrix Linear::Backward(const Matrix& grad_output) {
  // dW += x^T dy ; db += colsum(dy) ; dx = dy W^T. The weight gradient is
  // accumulated over fixed minibatch shards in parallel with a fixed-order
  // reduction, so it is bit-identical at every thread count.
  ShardedGemmTN(input_cache_, grad_output, &weight.grad);
  Axpy(1.0f, ColumnSums(grad_output), &bias.grad);
  Matrix grad_input;
  Gemm(grad_output, false, weight.value, true, 1.0f, 0.0f, &grad_input);
  return grad_input;
}

void Linear::CollectParameters(std::vector<Parameter*>* out) {
  out->push_back(&weight);
  out->push_back(&bias);
}

void Linear::Serialize(util::ByteWriter& w) const {
  weight.value.Serialize(w);
  bias.value.Serialize(w);
}

util::Result<std::unique_ptr<Linear>> Linear::Deserialize(
    util::ByteReader& r) {
  auto layer = std::unique_ptr<Linear>(new Linear());
  DEEPAQP_ASSIGN_OR_RETURN(layer->weight.value, Matrix::Deserialize(r));
  DEEPAQP_ASSIGN_OR_RETURN(layer->bias.value, Matrix::Deserialize(r));
  if (layer->bias.value.rows() != 1 ||
      layer->bias.value.cols() != layer->weight.value.cols()) {
    return util::Status::InvalidArgument("linear layer shape mismatch");
  }
  layer->weight.ZeroGrad();
  layer->bias.ZeroGrad();
  return layer;
}

Matrix Relu::Forward(const Matrix& input) {
  Matrix out = input;
  mask_.Resize(input.rows(), input.cols());
  float* o = out.data();
  float* m = mask_.data();
  for (size_t i = 0; i < out.size(); ++i) {
    const bool on = o[i] > 0.0f;  // false for NaN: zeroed, mask 0
    m[i] = on ? 1.0f : 0.0f;
    o[i] = on ? o[i] : 0.0f;
  }
  return out;
}

Matrix Relu::Backward(const Matrix& grad_output) {
  DEEPAQP_CHECK_EQ(grad_output.size(), mask_.size());
  Matrix grad = grad_output;
  for (size_t i = 0; i < grad.size(); ++i) {
    grad.data()[i] *= mask_.data()[i];
  }
  return grad;
}

Matrix LeakyRelu::Forward(const Matrix& input) {
  input_cache_ = input;
  Matrix out = input;
  ApplyActivation(Activation::kLeakyRelu, slope_, out.data(), out.size());
  return out;
}

Matrix LeakyRelu::Backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  const float slope = slope_;
  const float* __restrict__ x = input_cache_.data();
  float* __restrict__ g = grad.data();
  // Every element is multiplied (by 1 where x >= 0 or NaN, which leaves it
  // bit-identical), so the loop carries no branch and vectorizes. The
  // factor is named on purpose: written as `g[i] *= x[i] < 0 ? ...`, GCC
  // moves the multiply into the branch and vectorizes nothing.
  for (size_t i = 0; i < grad.size(); ++i) {
    const float factor = x[i] < 0.0f ? slope : 1.0f;
    g[i] = g[i] * factor;
  }
  return grad;
}

Matrix Tanh::Forward(const Matrix& input) {
  Matrix out = input;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = std::tanh(out.data()[i]);
  }
  output_cache_ = out;
  return out;
}

Matrix Tanh::Backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  for (size_t i = 0; i < grad.size(); ++i) {
    const float y = output_cache_.data()[i];
    grad.data()[i] *= 1.0f - y * y;
  }
  return grad;
}

Matrix Sigmoid::Forward(const Matrix& input) {
  Matrix out = input;
  for (size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = 1.0f / (1.0f + std::exp(-out.data()[i]));
  }
  output_cache_ = out;
  return out;
}

Matrix Sigmoid::Backward(const Matrix& grad_output) {
  Matrix grad = grad_output;
  for (size_t i = 0; i < grad.size(); ++i) {
    const float y = output_cache_.data()[i];
    grad.data()[i] *= y * (1.0f - y);
  }
  return grad;
}

Matrix Sequential::Forward(const Matrix& input) {
  Matrix x = input;
  for (auto& layer : layers_) x = layer->Forward(x);
  return x;
}

Matrix Sequential::Backward(const Matrix& grad_output) {
  Matrix g = grad_output;
  for (size_t i = layers_.size(); i-- > 0;) {
    g = layers_[i]->Backward(g);
  }
  return g;
}

void Sequential::CollectParameters(std::vector<Parameter*>* out) {
  for (auto& layer : layers_) layer->CollectParameters(out);
}

void Sequential::Serialize(util::ByteWriter& w) const {
  w.WriteU64(layers_.size());
  for (const auto& layer : layers_) {
    w.WriteString(layer->TypeName());
    layer->Serialize(w);
  }
}

util::Result<std::unique_ptr<Sequential>> Sequential::Deserialize(
    util::ByteReader& r) {
  DEEPAQP_ASSIGN_OR_RETURN(uint64_t n, r.ReadU64());
  auto seq = std::make_unique<Sequential>();
  for (uint64_t i = 0; i < n; ++i) {
    DEEPAQP_ASSIGN_OR_RETURN(std::string type, r.ReadString());
    if (type == "linear") {
      DEEPAQP_ASSIGN_OR_RETURN(auto layer, Linear::Deserialize(r));
      seq->Add(std::move(layer));
    } else if (type == "relu") {
      seq->Add(std::make_unique<Relu>());
    } else if (type == "leaky_relu") {
      DEEPAQP_ASSIGN_OR_RETURN(float slope, r.ReadF32());
      seq->Add(std::make_unique<LeakyRelu>(slope));
    } else if (type == "tanh") {
      seq->Add(std::make_unique<Tanh>());
    } else if (type == "sigmoid") {
      seq->Add(std::make_unique<Sigmoid>());
    } else {
      return util::Status::InvalidArgument("unknown layer type: " + type);
    }
  }
  return seq;
}

Matrix InferenceForward(const Linear& linear, const Matrix& x) {
  Matrix out;
  FusedLinearForward(x, linear.weight.value, linear.bias.value,
                     Activation::kIdentity, 0.0f, &out);
  return out;
}

void InferenceForwardInto(const Sequential& seq, const Matrix& x, Matrix* out,
                          ScratchArena* arena) {
  // Two destination buffers (out + one arena scratch) ping-pong through the
  // stack; each Linear is fused with a directly following activation, so a
  // (Linear, ReLU) block is one kernel call and zero intermediate Matrices.
  // The fused epilogue applies the bias after the complete k accumulation
  // and uses the same activation arithmetic as the layer loops, so outputs
  // match the layer-by-layer Sequential::Forward pass exactly.
  Matrix tmp = arena->Acquire();
  const Matrix* src = &x;
  Matrix* cur = nullptr;  // non-const alias of *src once src leaves x
  size_t l = 0;
  while (l < seq.num_layers()) {
    const Layer* layer = seq.layer(l);
    if (const auto* linear = dynamic_cast<const Linear*>(layer)) {
      Activation act = Activation::kIdentity;
      float slope = 0.0f;
      size_t consumed = 1;
      if (l + 1 < seq.num_layers()) {
        const Layer* next = seq.layer(l + 1);
        if (dynamic_cast<const Relu*>(next) != nullptr) {
          act = Activation::kRelu;
          consumed = 2;
        } else if (const auto* lk = dynamic_cast<const LeakyRelu*>(next)) {
          act = Activation::kLeakyRelu;
          slope = lk->slope();
          consumed = 2;
        } else if (dynamic_cast<const Tanh*>(next) != nullptr) {
          act = Activation::kTanh;
          consumed = 2;
        } else if (dynamic_cast<const Sigmoid*>(next) != nullptr) {
          act = Activation::kSigmoid;
          consumed = 2;
        }
      }
      Matrix* dst = (cur == out) ? &tmp : out;
      FusedLinearForward(*src, linear->weight.value, linear->bias.value, act,
                         slope, dst);
      cur = dst;
      src = dst;
      l += consumed;
      continue;
    }
    if (const auto* nested = dynamic_cast<const Sequential*>(layer)) {
      Matrix* dst = (cur == out) ? &tmp : out;
      InferenceForwardInto(*nested, *src, dst, arena);
      cur = dst;
      src = dst;
      ++l;
      continue;
    }
    // Standalone activation (not preceded by a Linear): run it in place,
    // copying x into out first if the data has not left the input yet.
    if (cur == nullptr) {
      out->Resize(x.rows(), x.cols());
      std::copy(x.data(), x.data() + x.size(), out->data());
      cur = out;
      src = out;
    }
    if (dynamic_cast<const Relu*>(layer) != nullptr) {
      ApplyActivation(Activation::kRelu, 0.0f, cur->data(), cur->size());
    } else if (const auto* leaky = dynamic_cast<const LeakyRelu*>(layer)) {
      ApplyActivation(Activation::kLeakyRelu, leaky->slope(), cur->data(),
                      cur->size());
    } else if (dynamic_cast<const Tanh*>(layer) != nullptr) {
      ApplyActivation(Activation::kTanh, 0.0f, cur->data(), cur->size());
    } else if (dynamic_cast<const Sigmoid*>(layer) != nullptr) {
      ApplyActivation(Activation::kSigmoid, 0.0f, cur->data(), cur->size());
    } else {
      DEEPAQP_CHECK(false);  // unknown layer type in inference path
    }
    ++l;
  }
  if (cur == nullptr) {
    // Empty stack: identity.
    out->Resize(x.rows(), x.cols());
    std::copy(x.data(), x.data() + x.size(), out->data());
  } else if (cur == &tmp) {
    std::swap(*out, tmp);
  }
  arena->Release(std::move(tmp));
}

Matrix InferenceForward(const Sequential& seq, const Matrix& x) {
  ScratchArena& arena = ScratchArena::ThreadLocal();
  Matrix out = arena.Acquire();
  InferenceForwardInto(seq, x, &out, &arena);
  return out;
}

std::unique_ptr<Sequential> MakeMlpTrunk(size_t in_dim, size_t hidden,
                                         int depth, util::Rng& rng) {
  DEEPAQP_CHECK_GE(depth, 1);
  auto seq = std::make_unique<Sequential>();
  size_t d = in_dim;
  for (int i = 0; i < depth; ++i) {
    seq->Add(Linear::WithHeInit(d, hidden, rng));
    seq->Add(std::make_unique<Relu>());
    d = hidden;
  }
  return seq;
}

size_t CountParameters(Layer& layer) {
  std::vector<Parameter*> params;
  layer.CollectParameters(&params);
  size_t total = 0;
  for (const Parameter* p : params) total += p->value.size();
  return total;
}

}  // namespace deepaqp::nn
