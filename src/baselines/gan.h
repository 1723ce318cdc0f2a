#ifndef DEEPAQP_BASELINES_GAN_H_
#define DEEPAQP_BASELINES_GAN_H_

#include <memory>

#include "aqp/evaluation.h"
#include "encoding/tuple_encoder.h"
#include "nn/layers.h"
#include "relation/table.h"
#include "util/rng.h"
#include "util/status.h"

namespace deepaqp::baselines {

/// Wasserstein GAN baseline (Fig. 11's "GAN" bar, per Sec. VI-C: WGAN
/// architecture [20] trained with RMSProp and weight clipping). The
/// generator maps N(0,I) noise to Bernoulli probabilities over the encoded
/// tuple bits; the critic scores encoded tuples. Training feeds the critic
/// soft generator outputs (the standard relaxation for discrete data);
/// generation samples hard bits and decodes with the shared TupleEncoder.
class WganModel {
 public:
  struct Options {
    encoding::EncoderOptions encoder;
    size_t noise_dim = 32;
    size_t hidden_dim = 64;
    int depth = 2;
    int epochs = 15;
    size_t batch_size = 128;
    float learning_rate = 5e-4f;
    /// Critic updates per generator update (WGAN convention).
    int critic_steps = 3;
    /// Weight-clipping limit for the critic.
    float clip = 0.01f;
    uint64_t seed = 41;
  };

  struct TrainDiagnostics {
    /// Per-epoch critic Wasserstein estimate E[f(real)] - E[f(fake)].
    std::vector<double> wasserstein;
  };

  static util::Result<std::unique_ptr<WganModel>> Train(
      const relation::Table& table, const Options& options,
      TrainDiagnostics* diag = nullptr);

  relation::Table Generate(size_t n, util::Rng& rng);

  aqp::SampleFn MakeSampler(uint64_t seed = 43);

  /// Generator parameter count (the artifact shipped to clients; the critic
  /// is training-only, as in the paper's model-size accounting).
  size_t GeneratorParameters();

 private:
  WganModel() = default;

  Options options_;
  encoding::TupleEncoder encoder_;
  std::unique_ptr<nn::Sequential> generator_;
  std::unique_ptr<nn::Sequential> critic_;
};

}  // namespace deepaqp::baselines

#endif  // DEEPAQP_BASELINES_GAN_H_
