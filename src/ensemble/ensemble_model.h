#ifndef DEEPAQP_ENSEMBLE_ENSEMBLE_MODEL_H_
#define DEEPAQP_ENSEMBLE_ENSEMBLE_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aqp/evaluation.h"
#include "ensemble/partitioning.h"
#include "relation/table.h"
#include "util/rng.h"
#include "util/snapshot.h"
#include "util/status.h"
#include "vae/vae_model.h"

namespace deepaqp::ensemble {

/// Snapshot identity of a serialized EnsembleModel (util/snapshot.h).
inline constexpr char kEnsembleSnapshotKind[] = "deepaqp.ensemble";
inline constexpr uint32_t kEnsemblePayloadVersion = 1;

/// What a tolerant ensemble load actually recovered: with per-member
/// snapshot sections, one corrupt member need not take down the whole
/// model — the client can keep serving from the surviving members and
/// report the reduced coverage.
struct EnsembleLoadReport {
  size_t members_total = 0;
  size_t members_loaded = 0;
  /// Fraction of the original mixture weight carried by loaded members
  /// (1.0 when nothing was lost).
  double coverage = 1.0;
  /// One "member-NNNN: <status>" line per member that failed to load.
  std::vector<std::string> member_errors;

  bool degraded() const { return members_loaded < members_total; }
};

/// What degraded ensemble *training* actually produced — the training-time
/// mirror of EnsembleLoadReport. A member whose training fails is retried
/// with a perturbed seed; members that still fail are skipped, surviving
/// weights are renormalized, and the lost coverage is reported here.
struct EnsembleTrainReport {
  size_t members_total = 0;
  size_t members_trained = 0;
  /// Member retraining attempts spent after first-attempt failures.
  size_t retries = 0;
  /// Fraction of the training rows covered by trained members (1.0 when
  /// nothing was lost).
  double coverage = 1.0;
  /// One "member-NNNN: <status>" line per member that was skipped.
  std::vector<std::string> member_errors;

  bool degraded() const { return members_trained < members_total; }
};

/// A collection of per-partition VAEs acting as one generative model of the
/// whole relation (paper Sec. V): each member learns the finer structure of
/// its partition; generation draws from members proportionally to partition
/// size, so the union distribution is preserved.
class EnsembleModel {
 public:
  /// Trains one VAE per part, members in parallel on the global thread
  /// pool. `groups` are atomic row groups of `table`; `partition.parts`
  /// lists group indices per part. Member seeds derive deterministically
  /// from (options.seed, part index), so members differ from each other but
  /// the trained ensemble is identical at every thread count.
  ///
  /// Self-healing: a member whose training fails is retried (bounded,
  /// deterministic seed perturbation); irrecoverable members are skipped
  /// with renormalized weights and reported via `report`. Errors only when
  /// the partition is invalid or no member can be trained at all.
  static util::Result<std::unique_ptr<EnsembleModel>> Train(
      const relation::Table& table, const std::vector<AtomicGroup>& groups,
      const Partition& partition, const vae::VaeAqpOptions& options,
      EnsembleTrainReport* report = nullptr);

  /// Generates `n` tuples: each member contributes a share proportional to
  /// its partition's row count (multinomial split of n).
  relation::Table Generate(size_t n, double t, util::Rng& rng);

  aqp::SampleFn MakeSampler(double t, uint64_t seed = 77);

  /// Sum of members' R-ELBO losses on their own partitions (the paper's
  /// partition objective Sum_i R-ELBO(s_i)).
  double TotalRElboLoss(const relation::Table& table, double t,
                        util::Rng& rng);

  size_t num_members() const { return members_.size(); }
  vae::VaeAqpModel& member(size_t i) { return *members_[i]; }

  /// Combined serialized size of all members.
  size_t ModelSizeBytes() const;

  /// Serializes members and mixture weights. A deserialized ensemble can
  /// Generate and answer queries; TotalRElboLoss additionally needs the
  /// training-time partition rows, which do not ship with the model, so it
  /// is only valid on the in-process trained instance.
  std::vector<uint8_t> Serialize() const;
  static util::Result<std::unique_ptr<EnsembleModel>> Deserialize(
      const std::vector<uint8_t>& bytes);

  /// Corruption-tolerant load: members whose snapshot sections fail their
  /// checksum (or fall beyond a truncated tail) are skipped, the remaining
  /// members' mixture weights are renormalized, and `report` (optional)
  /// receives what was lost. Errors only when the header/weights are
  /// unreadable or no member survives.
  static util::Result<std::unique_ptr<EnsembleModel>> DeserializeDegraded(
      const std::vector<uint8_t>& bytes, EnsembleLoadReport* report);

 private:
  EnsembleModel() = default;

  static util::Result<std::unique_ptr<EnsembleModel>> DeserializeImpl(
      const util::SnapshotReader& snap, bool tolerant,
      EnsembleLoadReport* report);

  std::vector<std::unique_ptr<vae::VaeAqpModel>> members_;
  /// Row indices of each member's partition in the training table.
  std::vector<std::vector<size_t>> member_rows_;
  std::vector<double> weights_;  // partition fractions, sum to 1
};

}  // namespace deepaqp::ensemble

#endif  // DEEPAQP_ENSEMBLE_ENSEMBLE_MODEL_H_
