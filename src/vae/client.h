#ifndef DEEPAQP_VAE_CLIENT_H_
#define DEEPAQP_VAE_CLIENT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aqp/engine.h"
#include "aqp/query.h"
#include "relation/table.h"
#include "util/rng.h"
#include "util/status.h"
#include "vae/vae_model.h"
#include "vae/workflow.h"

namespace deepaqp::vae {

/// The client-side facade of the paper's deployment story: constructed from
/// serialized model bytes (no data access), it keeps a cached pool of
/// synthetic samples and answers SQL-text or AST queries with confidence
/// intervals. Precision-on-demand: ask for a tighter interval and the
/// client grows the pool instead of contacting any server. Pool generation
/// runs on the global thread pool (util::SetGlobalThreads / --threads) and
/// is deterministic in `seed` regardless of the thread count.
///
/// The pool is append-only, so the client keeps a per-predicate selection
/// bitmap and per-query dense group moments: a repeated query re-aggregates
/// nothing, and after precision-on-demand growth only the newly generated
/// suffix rows are filtered and folded in. Because suffix rows fold into
/// the running moments in row order, a warm cache returns results
/// bit-identical to a cold aqp::EstimateFromSample scan of the same pool.
class AqpClient {
 public:
  struct Options {
    /// Rows in the initial sample pool.
    size_t initial_samples = 2000;
    /// Hard cap on pool growth (WithMaxRelativeCi stops here).
    size_t max_samples = 200000;
    /// Population size COUNT/SUM estimates scale to (the original
    /// relation's row count, shipped alongside the model).
    size_t population_rows = 1000000;
    /// Rejection threshold; NaN means the model's calibrated default.
    double t = std::numeric_limits<double>::quiet_NaN();
    uint64_t seed = 2027;
  };

  /// Builds a client from serialized model bytes.
  static util::Result<std::unique_ptr<AqpClient>> Open(
      const std::vector<uint8_t>& model_bytes, const Options& options);

  /// Wraps an already-loaded model (takes ownership).
  static std::unique_ptr<AqpClient> Wrap(
      std::unique_ptr<VaeAqpModel> model, const Options& options);

  /// Shares an already-loaded read-only model (server sessions: the model
  /// registry hands every session the same refcounted snapshot; Generate is
  /// const and self-contained, so concurrent sessions need no locking).
  static std::unique_ptr<AqpClient> Share(
      std::shared_ptr<const VaeAqpModel> model, const Options& options);

  /// Replaces the model (hot swap on a registry version bump). The sample
  /// pool and every cached bitmap / group-moment entry were computed from
  /// the old generator, so both are discarded and the client is re-seeded
  /// from options.seed: after SwapModel the client is bit-identical to a
  /// fresh client opened on `model` with the same options. Counts into
  /// cache_stats().invalidations.
  void SwapModel(std::shared_ptr<const VaeAqpModel> model);

  /// Answers a SQL-text query (see aqp::ParseSql for the dialect).
  util::Result<aqp::QueryResult> Query(const std::string& sql);

  /// Answers an already-built query AST. A pool growth that the last
  /// QueryRefineStep deferred is applied first, so the answer is computed
  /// on the pool that step asked for.
  util::Result<aqp::QueryResult> Query(const aqp::AggregateQuery& query);

  /// Answers, growing the sample pool (up to options.max_samples) until
  /// every group's CI half-width is within `max_relative_ci` of its value.
  util::Result<aqp::QueryResult> QueryWithMaxRelativeCi(
      const aqp::AggregateQuery& query, double max_relative_ci);

  /// One precision-on-demand refinement step — the resumable core of
  /// QueryWithMaxRelativeCi, exposed so a server can stream every
  /// intermediate estimate instead of only the final one. Answers `query`
  /// on the pool the client holds, without generating anything first
  /// beyond a growth an earlier step deferred. When some group's relative
  /// CI still exceeds `max_relative_ci` and the pool can grow, sets
  /// *final = false and records a doubling of the pool as pending; the
  /// next Query or QueryRefineStep generates it before answering.
  /// Otherwise *final = true and nothing is pending. So an estimate
  /// returns before the growth it asks for is paid, and pool_size() right
  /// after a step is the sample size that step's estimate was computed
  /// on. Calling QueryRefineStep until *final yields exactly the
  /// QueryWithMaxRelativeCi trajectory (same pool growth, same answers).
  util::Result<aqp::QueryResult> QueryRefineStep(
      const aqp::AggregateQuery& query, double max_relative_ci, bool* final);

  /// Observability of the query cache (tests, benches). Counters are
  /// cumulative over the client's lifetime.
  struct CacheStats {
    /// Distinct predicate bitmaps / aggregation states held.
    size_t filter_entries = 0;
    size_t agg_entries = 0;
    /// Rows pushed through the selection kernels / aggregation pass. With a
    /// warm cache these advance by exactly the pool growth per query, not
    /// by the full pool size.
    uint64_t rows_filtered = 0;
    uint64_t rows_aggregated = 0;
    /// Full cache resets forced by SwapModel (stale bitmaps/moments from a
    /// previous model version must never answer queries on the new one).
    uint64_t invalidations = 0;
  };

  const CacheStats& cache_stats() const { return cache_stats_; }

  /// Current pool size (grows monotonically). A growth deferred by
  /// QueryRefineStep is not counted until the next query generates it.
  size_t pool_size() const { return pool_.num_rows(); }

  /// The pool itself (e.g., to hand to visualization code).
  const relation::Table& pool() const { return pool_; }

  const VaeAqpModel& model() const { return *model_; }

  /// Registers an Algorithm 1 outcome with the client. A non-passed outcome
  /// (budget exhausted or degraded) records a warning and widens every
  /// subsequent confidence interval by a fixed inflation factor — the model
  /// serves best-effort answers instead of silently presenting unvalidated
  /// estimates at face value. A passed outcome clears the inflation.
  void NoteBiasElimination(const BiasEliminationResult& result);

  /// Multiplier currently applied to every CI half-width (1.0 = none).
  double ci_inflation() const { return ci_inflation_; }

  /// Accumulated robustness warnings (bias-elimination degradations etc.).
  const std::vector<std::string>& warnings() const { return warnings_; }

 private:
  /// Cached selection bitmap of one predicate over the pool prefix
  /// [0, rows_seen); growth appends bits for the new suffix only.
  struct FilterCacheEntry {
    size_t rows_seen = 0;
    aqp::SelectionVector sel;
  };

  /// Cached dense group moments of one (agg, measure, group-by, predicate)
  /// shape over the pool prefix [0, rows_seen). The quantile level is not
  /// part of the key: it only enters at finalization, so QUANTILE(0.5) and
  /// QUANTILE(0.9) share one accumulation.
  struct AggCacheEntry {
    size_t rows_seen = 0;
    aqp::DenseGroupMoments acc;
  };

  AqpClient(std::shared_ptr<const VaeAqpModel> model, const Options& options);

  void GrowPool(size_t target_rows);

  /// The cached path behind Query(): suffix-incremental bitmap + moments
  /// lookup, then the shared FinalizeEstimate.
  util::Result<aqp::QueryResult> QueryCached(const aqp::AggregateQuery& query);

  Options options_;
  std::shared_ptr<const VaeAqpModel> model_;
  double t_;
  util::Rng rng_;
  relation::Table pool_;
  /// Pool size a non-final QueryRefineStep asked for; the next Query grows
  /// to it first. 0 = nothing pending.
  size_t pending_rows_ = 0;
  std::map<std::string, FilterCacheEntry> filter_cache_;
  std::map<std::string, AggCacheEntry> agg_cache_;
  CacheStats cache_stats_;
  double ci_inflation_ = 1.0;
  std::vector<std::string> warnings_;
};

}  // namespace deepaqp::vae

#endif  // DEEPAQP_VAE_CLIENT_H_
