#ifndef DEEPAQP_VAE_VAE_NET_H_
#define DEEPAQP_VAE_VAE_NET_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/matrix.h"
#include "nn/optimizer.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace deepaqp::vae {

/// Architecture hyperparameters of the VAE (paper Sec. VI-A: 2-layer
/// encoder/decoder, Normal latent, Bernoulli outputs; Figs. 4-5 sweep
/// latent_dim and depth).
struct VaeNetOptions {
  size_t input_dim = 0;
  size_t latent_dim = 0;
  size_t hidden_dim = 64;
  int depth = 2;
  uint64_t seed = 1;
};

/// Per-batch training controls. With `use_vrs`, latent draws are rejection-
/// sampled against per-tuple thresholds T(x) (variational rejection
/// sampling, Grover et al. [22] as adapted in Sec. IV-B): a draw z from
/// q(z|x) is accepted with probability min(1, e^{T(x)} p(x,z)/q(z|x)). Up to
/// `max_rounds` redraw rounds; rows still unaccepted keep their last draw.
/// Gradients use the plain reparameterization estimator on the accepted
/// draws (a documented simplification of [22]'s estimator).
struct TrainStepOptions {
  bool use_vrs = false;
  /// Per-row thresholds T(x); must have one entry per batch row when
  /// use_vrs is true.
  const std::vector<float>* row_t = nullptr;
  int max_rounds = 3;
};

/// One training step's diagnostics.
struct StepStats {
  double recon_loss = 0.0;  // mean BCE reconstruction term
  double kl = 0.0;          // mean KL(q(z|x) || N(0,I))
  /// Fraction of latent draws accepted across VRS rounds (1.0 without VRS).
  double acceptance = 1.0;
  /// Log-ratio r(z) = log p(x,z) - log q(z|x) per batch row (last draw),
  /// used by the caller to maintain per-tuple T(x) estimates.
  std::vector<float> log_ratio;
};

/// The variational autoencoder network: encoder trunk -> (mu, logvar)
/// heads, Gaussian latent with reparameterization, decoder trunk -> logits
/// interpreted as independent Bernoulli parameters over the encoded tuple
/// bits. Not thread-safe (layers cache per-batch state).
class VaeNet {
 public:
  explicit VaeNet(const VaeNetOptions& options);

  size_t input_dim() const { return options_.input_dim; }
  size_t latent_dim() const { return options_.latent_dim; }

  /// Variational posterior parameters for a batch.
  struct Posterior {
    nn::Matrix mu;
    nn::Matrix logvar;
  };
  Posterior Encode(const nn::Matrix& x);

  /// Const counterpart of Encode for concurrent inference on a shared,
  /// read-only net: same operations in the same order (bit-identical
  /// output), but no per-batch layer caches are written, so any number of
  /// threads may call it simultaneously. Cannot be followed by Backward.
  Posterior EncodeConst(const nn::Matrix& x) const;

  /// Allocation-free EncodeConst: posterior matrices and every intermediate
  /// come from caller-owned storage (`post` is resized; scratch is drawn
  /// from `arena`). Bit-identical to EncodeConst; lets generation loops
  /// reuse one Posterior across batches. The mu and logvar heads run as
  /// one GEMM, bit-identical to two.
  void EncodeConstInto(const nn::Matrix& x, Posterior* post,
                       nn::ScratchArena* arena) const;

  /// Decoder forward: latent batch -> Bernoulli logits over encoded bits.
  nn::Matrix DecodeLogits(const nn::Matrix& z);

  /// Const, cache-free decoder forward (see EncodeConst).
  nn::Matrix DecodeLogitsConst(const nn::Matrix& z) const;

  /// Allocation-free DecodeLogitsConst (see EncodeConstInto).
  void DecodeLogitsConstInto(const nn::Matrix& z, nn::Matrix* logits,
                             nn::ScratchArena* arena) const;

  /// Runs one optimizer step on batch `x` (encoded tuples in [0,1]) and
  /// returns diagnostics. `opt` must have been built over Parameters().
  StepStats TrainStep(const nn::Matrix& x, nn::Optimizer& opt,
                      util::Rng& rng, const TrainStepOptions& step);

  /// Single-sample Monte-Carlo ELBO *loss* (recon BCE + KL, lower is
  /// better — the minimization convention the paper's partitioning
  /// objective uses).
  double ElboLoss(const nn::Matrix& x, util::Rng& rng);

  /// Resampled ELBO loss (Sec. V-B): latent draws are rejection-sampled from
  /// q(z|x) with global threshold `t` (up to `max_rounds` rounds) before the
  /// bound is evaluated. Lower is better; R-ELBO at t=+inf equals ElboLoss
  /// in expectation.
  double RElboLoss(const nn::Matrix& x, double t, util::Rng& rng,
                   int max_rounds = 3);

  /// Row-wise log p(x|z) + log p(z) for given x bits and latents.
  nn::Matrix LogJointRows(const nn::Matrix& x_bits, const nn::Matrix& z);

  /// Const, cache-free variant of LogJointRows (see EncodeConst).
  nn::Matrix LogJointRowsConst(const nn::Matrix& x_bits,
                               const nn::Matrix& z) const;

  /// Row-wise log q(z|x) for a posterior previously computed on x.
  static nn::Matrix LogPosteriorRows(const Posterior& post,
                                     const nn::Matrix& z);

  /// Log-ratio rows r = log p(x,z) - log q(z|x) used by all VRS decisions.
  nn::Matrix LogRatioRows(const nn::Matrix& x_bits, const Posterior& post,
                          const nn::Matrix& z);

  /// Const, cache-free variant of LogRatioRows (see EncodeConst).
  nn::Matrix LogRatioRowsConst(const nn::Matrix& x_bits,
                               const Posterior& post,
                               const nn::Matrix& z) const;

  /// Allocation-free LogRatioRowsConst: the decoder logits (the one large
  /// intermediate) come from `arena`; the n x 1 result is written to `out`.
  /// A decoder pass followed by LogRatioRowsFromLogitsInto.
  void LogRatioRowsConstInto(const nn::Matrix& x_bits, const Posterior& post,
                             const nn::Matrix& z, nn::Matrix* out,
                             nn::ScratchArena* arena) const;

  /// LogRatioRowsConstInto for a caller that already holds the decoder
  /// logits of `z` (generation decodes each VRS window once and reuses the
  /// logits for both the candidates and their log-ratios). Bit-identical to
  /// LogRatioRowsConst(x_bits, post, z) when `logits` are z's.
  static void LogRatioRowsFromLogitsInto(const nn::Matrix& logits,
                                         const nn::Matrix& x_bits,
                                         const Posterior& post,
                                         const nn::Matrix& z,
                                         nn::Matrix* out);

  /// Draws z ~ N(0, I) (the generative prior) by nn::StandardNormalVec:
  /// one rng word per pair of entries. Training's eps draws keep
  /// rng.NextGaussian() (DESIGN.md Sec. 18).
  nn::Matrix SamplePrior(size_t n, util::Rng& rng) const;

  /// SamplePrior into a reused buffer; consumes the same RNG stream.
  void SamplePriorInto(size_t n, util::Rng& rng, nn::Matrix* z) const;

  /// Reparameterized posterior draw z = mu + exp(logvar/2) * eps.
  static nn::Matrix Reparameterize(const Posterior& post,
                                   const nn::Matrix& eps);

  /// Reparameterize into a reused buffer (identical arithmetic).
  static void ReparameterizeInto(const Posterior& post, const nn::Matrix& eps,
                                 nn::Matrix* z);

  std::vector<nn::Parameter*> Parameters();

  /// Number of scalar weights (model-size accounting).
  size_t NumParameters();

  /// Value-only copy of every parameter matrix, in Parameters() order — a
  /// cheap in-memory checkpoint for divergence rollback.
  std::vector<nn::Matrix> CloneParameterValues();

  /// Restores parameter values from a CloneParameterValues() snapshot.
  /// Shapes must match the current architecture.
  void RestoreParameterValues(const std::vector<nn::Matrix>& values);

  /// True when every parameter entry is finite (divergence sentinel).
  bool ParametersFinite();

  void Serialize(util::ByteWriter& w) const;
  static util::Result<std::unique_ptr<VaeNet>> Deserialize(
      util::ByteReader& r);

 private:
  VaeNet() = default;

  VaeNetOptions options_;
  std::unique_ptr<nn::Sequential> encoder_trunk_;
  std::unique_ptr<nn::Linear> mu_head_;
  std::unique_ptr<nn::Linear> logvar_head_;
  std::unique_ptr<nn::Sequential> decoder_;
};

}  // namespace deepaqp::vae

#endif  // DEEPAQP_VAE_VAE_NET_H_
