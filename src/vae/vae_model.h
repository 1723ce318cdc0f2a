#ifndef DEEPAQP_VAE_VAE_MODEL_H_
#define DEEPAQP_VAE_VAE_MODEL_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "aqp/evaluation.h"
#include "encoding/tuple_encoder.h"
#include "relation/table.h"
#include "util/rng.h"
#include "util/status.h"
#include "vae/vae_net.h"

namespace deepaqp::vae {

/// Snapshot identity of a serialized VaeAqpModel (util/snapshot.h container;
/// the CLI dispatches on the kind string without parsing the payload).
inline constexpr char kVaeModelSnapshotKind[] = "deepaqp.vae-model";
/// Version 2 dropped the decode options from the 'meta' section; version-1
/// snapshots still load (see Deserialize).
inline constexpr uint32_t kVaeModelPayloadVersion = 2;

/// Sentinels for the rejection threshold sweep of Fig. 8. kTPlusInf accepts
/// every sample (no rejection); kTMinusInf accepts only the best-ratio
/// candidate per generation window (the practical T -> -inf limit).
inline constexpr double kTPlusInf = std::numeric_limits<double>::infinity();
inline constexpr double kTMinusInf =
    -std::numeric_limits<double>::infinity();

/// Everything needed to train a VAE AQP model (paper Sec. VI-A defaults).
struct VaeAqpOptions {
  encoding::EncoderOptions encoder;
  /// Latent dimensionality as a fraction of the encoded input dimension
  /// (Fig. 4 sweeps 10%-100%; 50% is the paper's sweet spot). Ignored when
  /// `latent_dim` is set explicitly.
  double latent_fraction = 0.5;
  size_t latent_dim = 0;
  size_t hidden_dim = 64;
  /// Encoder/decoder depth (Fig. 5; paper default 2).
  int depth = 2;
  int epochs = 15;
  size_t batch_size = 128;
  float learning_rate = 1e-3f;
  uint64_t seed = 1234;
  /// Train with variational rejection sampling: per-tuple thresholds T(x)
  /// maintained so posterior draws are accepted with probability ~
  /// `train_accept_target` (paper: 0.9). Kicks in after a warmup of
  /// epochs/3 plain-ELBO epochs.
  bool vrs_training = true;
  double train_accept_target = 0.9;
  int vrs_rounds = 3;
  /// Self-healing: how many divergence rollbacks Train() may spend before
  /// giving up with a descriptive Status. Each rollback restores the best
  /// finite checkpoint and multiplies the learning rate by
  /// `divergence_lr_backoff` for the retry.
  int max_divergence_retries = 3;
  float divergence_lr_backoff = 0.5f;
  /// Holds nothing: every decode is one draw (encoding::DecodeOptions). Kept
  /// for the repository benchmark, which passes it to DecodeLogits.
  encoding::DecodeOptions decode;
};

/// Per-epoch training diagnostics.
struct EpochStats {
  double recon_loss = 0.0;
  double kl = 0.0;
  double acceptance = 1.0;
  double seconds = 0.0;
};

/// Structured self-healing summary of one Train() call. All-zero (with
/// `final_learning_rate` = the configured rate) on a healthy run.
struct TrainReport {
  /// Epochs rejected by the divergence sentinels (non-finite loss,
  /// non-finite parameters, skipped gradients, or an injected fault).
  int divergence_events = 0;
  /// Best-checkpoint restores performed (each consumes one retry).
  int rollbacks = 0;
  /// Learning rate in effect when training finished.
  float final_learning_rate = 0.0f;
  /// Non-finite gradient entries skipped by the optimizer sentinels.
  uint64_t nonfinite_grads = 0;
  /// Per-tuple T(x) quantile updates skipped on a non-finite log-ratio.
  uint64_t nonfinite_log_ratios = 0;
  /// True when no finite calibration threshold survived and default_t fell
  /// back to accept-all (kTPlusInf).
  bool calibration_fallback = false;
};

struct TrainingStats {
  std::vector<EpochStats> epochs;  ///< healthy (kept) epochs only
  double total_seconds = 0.0;
  TrainReport report;
};

/// Health counters for one Generate() call. All-zero in a healthy run; the
/// non-zero fields describe how generation degraded under faults.
struct GenerateStats {
  size_t nonfinite_ratios = 0;  ///< candidates rejected: non-finite log-ratio
  size_t nonfinite_rows_dropped = 0;  ///< decoded rows scrubbed (NaN/Inf cell)
  size_t stalled_windows = 0;  ///< candidate windows that yielded no rows
  size_t forced_accept_windows = 0;  ///< windows pushed to accept-all mode
  void Merge(const GenerateStats& o) {
    nonfinite_ratios += o.nonfinite_ratios;
    nonfinite_rows_dropped += o.nonfinite_rows_dropped;
    stalled_windows += o.stalled_windows;
    forced_accept_windows += o.forced_accept_windows;
  }
};

/// Conditional generation outcome: the rows plus enough accounting for the
/// caller to see an under-sampled result instead of trusting num_rows()
/// blindly.
struct GenerateWhereResult {
  relation::Table rows;
  size_t requested = 0;
  size_t candidates = 0;  ///< model samples drawn while matching
  size_t shortfall() const {
    return rows.num_rows() < requested ? requested - rows.num_rows() : 0;
  }
};

/// The paper's primary artifact: a trained VAE + fitted tuple encoder that
/// generates synthetic relational samples for client-side AQP. Construction
/// is via Train() or Deserialize(); generation applies variational rejection
/// sampling at a caller-chosen threshold T.
class VaeAqpModel {
 public:
  /// Trains on `table`. `stats`, when non-null, receives per-epoch
  /// diagnostics (Fig. 12's training-time measurements).
  static util::Result<std::unique_ptr<VaeAqpModel>> Train(
      const relation::Table& table, const VaeAqpOptions& options,
      TrainingStats* stats = nullptr);

  /// Generates `n` synthetic tuples with rejection threshold `t`
  /// (kTPlusInf = no rejection). Rejection runs on latent points: for each
  /// prior draw z, candidate bits x' ~ Bernoulli(sigmoid(decoder(z))) are
  /// sampled and z is accepted with probability
  /// min(1, e^t * p(x',z) / q(z|x')) (Eq. 8 with M' = e^{-t}). The tuple
  /// served for an accepted z is not x' but a fresh one-draw decode of z's
  /// logits (DESIGN.md Sec. 18 says why). If a whole candidate window is
  /// rejected, the best-ratio candidate is taken so generation always
  /// terminates (this implements the T -> -inf limit).
  ///
  /// Generation is parallel and deterministic: the request is cut into
  /// fixed-size chunks, chunk i draws from the child stream
  /// Rng::ChildStream(master, i) where `master` is one value taken from
  /// `rng`, and chunks are concatenated in index order — so the output is
  /// bit-identical for every thread count, including the serial pool.
  ///
  /// Robustness: non-finite log-ratios are treated as rejections (counted in
  /// `stats`), decoded rows with non-finite numeric cells are scrubbed, and
  /// a window budget bounds the acceptance loop — a chunk that cannot make
  /// progress degrades to accept-all and ultimately returns fewer rows
  /// rather than spinning. Healthy runs never hit any of these paths, so
  /// outputs stay bit-identical to the unhardened loop.
  /// Const and self-contained (chunk-local arenas, cache-free net forwards),
  /// so a model shared read-only across server sessions can generate
  /// concurrently without synchronization.
  relation::Table Generate(size_t n, double t, util::Rng& rng,
                           GenerateStats* stats = nullptr) const;

  /// Generates with the calibrated default threshold (90th percentile of
  /// the per-tuple T(x) distribution from the final training epoch).
  relation::Table Generate(size_t n, util::Rng& rng) const {
    return Generate(n, default_t_, rng);
  }

  /// Conditional generation (the paper's Sec. VIII extension): produces up
  /// to `n` tuples satisfying `predicate` by rejecting non-matching model
  /// samples. The result reports the candidate budget spent and any
  /// shortfall, so callers can widen confidence intervals instead of
  /// silently under-sampling when `max_candidates` model samples do not
  /// yield enough matches (very selective predicates).
  GenerateWhereResult GenerateWhereReport(size_t n,
                                          const aqp::Predicate& predicate,
                                          double t, util::Rng& rng,
                                          size_t max_candidates = 1 << 20) const;

  /// Legacy table-only wrapper over GenerateWhereReport; WARN-logs any
  /// shortfall so under-sampling is at least visible in the logs.
  relation::Table GenerateWhere(size_t n, const aqp::Predicate& predicate,
                                double t, util::Rng& rng,
                                size_t max_candidates = 1 << 20) const;

  /// Adapts this model to the evaluation harness's SampleFn interface.
  aqp::SampleFn MakeSampler(double t, uint64_t seed = 99) const;

  /// Resampled-ELBO loss of this model on `table` at threshold `t` (lower
  /// is better; Sec. V-B). Evaluated on at most `max_rows` rows.
  double RElboLoss(const relation::Table& table, double t, util::Rng& rng,
                   size_t max_rows = 2048);

  /// Plain ELBO loss (equivalent to RElboLoss at t = +inf).
  double ElboLoss(const relation::Table& table, util::Rng& rng,
                  size_t max_rows = 2048);

  /// Calibrated generation threshold (Sec. VI-A's 90th-percentile rule).
  double default_t() const { return default_t_; }

  /// Serialized model size in bytes — the paper's "few hundred KBs"
  /// shipping artifact.
  size_t ModelSizeBytes() const;

  std::vector<uint8_t> Serialize() const;
  static util::Result<std::unique_ptr<VaeAqpModel>> Deserialize(
      const std::vector<uint8_t>& bytes);

  const encoding::TupleEncoder& tuple_encoder() const { return encoder_; }
  VaeNet& net() { return *net_; }
  const VaeAqpOptions& options() const { return options_; }

 private:
  VaeAqpModel() = default;

  /// Empty output table with the schema, declared cardinalities, and label
  /// dictionaries of the training relation.
  relation::Table MakeEmptySampleTable() const;

  /// Serial generation of one chunk's quota from its own rng stream. Const
  /// (uses the cache-free net inference paths) so chunks run concurrently.
  /// `stats` (required) accumulates this chunk's health counters.
  relation::Table GenerateChunk(size_t n, double t, util::Rng& rng,
                                GenerateStats* stats) const;

  VaeAqpOptions options_;
  encoding::TupleEncoder encoder_;
  std::unique_ptr<VaeNet> net_;
  double default_t_ = 0.0;
};

}  // namespace deepaqp::vae

#endif  // DEEPAQP_VAE_VAE_MODEL_H_
