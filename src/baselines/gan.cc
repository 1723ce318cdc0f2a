#include "baselines/gan.h"

#include <algorithm>
#include <cmath>

#include "nn/optimizer.h"
#include "util/logging.h"

namespace deepaqp::baselines {

using nn::Matrix;

namespace {

Matrix GaussianNoise(size_t rows, size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextGaussian());
  }
  return m;
}

double Mean(const Matrix& column) {
  double acc = 0.0;
  for (size_t r = 0; r < column.rows(); ++r) acc += column.At(r, 0);
  return acc / static_cast<double>(std::max<size_t>(column.rows(), 1));
}

}  // namespace

util::Result<std::unique_ptr<WganModel>> WganModel::Train(
    const relation::Table& table, const Options& options,
    TrainDiagnostics* diag) {
  if (table.num_rows() == 0) {
    return util::Status::InvalidArgument("cannot train WGAN on empty table");
  }
  auto model = std::unique_ptr<WganModel>(new WganModel());
  model->options_ = options;
  DEEPAQP_ASSIGN_OR_RETURN(
      model->encoder_, encoding::TupleEncoder::Fit(table, options.encoder));
  const size_t dim = model->encoder_.encoded_dim();

  util::Rng rng(options.seed);
  // Generator: noise -> hidden trunk -> sigmoid probabilities over bits.
  model->generator_ = nn::MakeMlpTrunk(options.noise_dim, options.hidden_dim,
                                       options.depth, rng);
  model->generator_->Add(
      std::make_unique<nn::Linear>(options.hidden_dim, dim, rng));
  model->generator_->Add(std::make_unique<nn::Sigmoid>());
  // Critic: bits -> LeakyReLU trunk -> scalar score (no sigmoid: WGAN).
  model->critic_ = std::make_unique<nn::Sequential>();
  size_t d = dim;
  for (int i = 0; i < options.depth; ++i) {
    model->critic_->Add(std::make_unique<nn::Linear>(
        d, options.hidden_dim, rng));
    model->critic_->Add(std::make_unique<nn::LeakyRelu>(0.2f));
    d = options.hidden_dim;
  }
  model->critic_->Add(std::make_unique<nn::Linear>(d, 1, rng));

  std::vector<nn::Parameter*> gen_params, critic_params;
  model->generator_->CollectParameters(&gen_params);
  model->critic_->CollectParameters(&critic_params);
  nn::RmsProp gen_opt(gen_params, options.learning_rate);
  nn::RmsProp critic_opt(critic_params, options.learning_rate);

  Matrix data = model->encoder_.EncodeAll(table);
  const size_t n = data.rows();
  const size_t batch = std::min(options.batch_size, n);

  auto real_batch = [&] {
    std::vector<size_t> idx(batch);
    for (auto& i : idx) i = rng.NextIndex(n);
    return data.GatherRows(idx);
  };

  const size_t steps_per_epoch = std::max<size_t>(1, n / batch);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    double wasserstein = 0.0;
    size_t measures = 0;
    for (size_t step = 0; step < steps_per_epoch; ++step) {
      // Critic updates: maximize E[f(real)] - E[f(fake)].
      for (int cs = 0; cs < options.critic_steps; ++cs) {
        critic_opt.ZeroGrad();
        Matrix real = real_batch();
        Matrix real_scores = model->critic_->Forward(real);
        // Gradient of (-mean(real_scores)) w.r.t. scores is -1/b.
        Matrix grad_real(real_scores.rows(), 1,
                         -1.0f / static_cast<float>(real_scores.rows()));
        model->critic_->Backward(grad_real);

        Matrix noise = GaussianNoise(batch, options.noise_dim, rng);
        Matrix fake = model->generator_->Forward(noise);
        Matrix fake_scores = model->critic_->Forward(fake);
        Matrix grad_fake(fake_scores.rows(), 1,
                         1.0f / static_cast<float>(fake_scores.rows()));
        model->critic_->Backward(grad_fake);
        critic_opt.Step();
        nn::ClipParameters(critic_params, options.clip);
        wasserstein += Mean(real_scores) - Mean(fake_scores);
        ++measures;
      }
      // Generator update: maximize E[f(fake)].
      gen_opt.ZeroGrad();
      critic_opt.ZeroGrad();  // critic grads are scratch here
      Matrix noise = GaussianNoise(batch, options.noise_dim, rng);
      Matrix fake = model->generator_->Forward(noise);
      Matrix fake_scores = model->critic_->Forward(fake);
      Matrix grad(fake_scores.rows(), 1,
                  -1.0f / static_cast<float>(fake_scores.rows()));
      Matrix dfake = model->critic_->Backward(grad);
      model->generator_->Backward(dfake);
      gen_opt.Step();
    }
    if (diag != nullptr) {
      diag->wasserstein.push_back(wasserstein /
                                  static_cast<double>(measures));
    }
  }
  return model;
}

relation::Table WganModel::Generate(size_t n, util::Rng& rng) {
  relation::Table out(encoder_.schema());
  for (size_t c = 0; c < encoder_.schema().num_attributes(); ++c) {
    if (encoder_.schema().IsCategorical(c)) {
      out.DeclareCardinality(c, encoder_.layout()[c].cardinality);
    }
  }
  const size_t window = 512;
  while (out.num_rows() < n) {
    const size_t batch = std::min(window, n - out.num_rows());
    Matrix noise = GaussianNoise(batch, options_.noise_dim, rng);
    Matrix probs = generator_->Forward(noise);
    // DecodeLogits expects logits; invert the generator's sigmoid.
    Matrix logits(probs.rows(), probs.cols());
    for (size_t i = 0; i < probs.size(); ++i) {
      const float p = std::clamp(probs.data()[i], 1e-6f, 1.0f - 1e-6f);
      logits.data()[i] = std::log(p / (1.0f - p));
    }
    relation::Table decoded = encoder_.DecodeLogits(logits, rng);
    DEEPAQP_CHECK(out.Append(decoded).ok());
  }
  return out;
}

aqp::SampleFn WganModel::MakeSampler(uint64_t seed) {
  return [this, seed](size_t rows, util::Rng& harness_rng) {
    util::Rng rng(seed ^ harness_rng.NextUint64());
    return Generate(rows, rng);
  };
}

size_t WganModel::GeneratorParameters() {
  return nn::CountParameters(*generator_);
}

}  // namespace deepaqp::baselines
