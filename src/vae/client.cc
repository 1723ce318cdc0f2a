#include "vae/client.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "aqp/executor.h"
#include "aqp/sql_parser.h"
#include "util/logging.h"

namespace deepaqp::vae {

namespace {

/// Exact textual key of a filter predicate. Constants are rendered as the
/// bit pattern of the double, so two conditions collide only if they are
/// bit-identical.
std::string PredicateKey(const aqp::Predicate& pred) {
  std::string key = pred.conjunctive ? "&" : "|";
  char buf[64];
  for (const aqp::Condition& c : pred.conditions) {
    uint64_t bits = 0;
    std::memcpy(&bits, &c.value, sizeof(bits));
    std::snprintf(buf, sizeof(buf), ";%zu,%d,%016llx", c.attr,
                  static_cast<int>(c.op),
                  static_cast<unsigned long long>(bits));
    key += buf;
  }
  return key;
}

/// Key of a query's accumulation state: everything that shapes the dense
/// moments except the quantile level (which only enters at finalization).
std::string AggKey(const aqp::AggregateQuery& query) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%d/%d/%d:", static_cast<int>(query.agg),
                query.measure_attr, query.group_by_attr);
  return buf + PredicateKey(query.filter);
}

/// Resolves the client's rejection threshold. NaN in `requested` means "use
/// the model's calibrated default" — but a NaN *default* (corrupt snapshot,
/// calibration gone wrong upstream of the accept-all fallback) must not
/// become the threshold: every acceptance test would silently misbehave.
/// +/-inf are legitimate sentinels and pass through.
double ResolveThreshold(double requested, double default_t) {
  const double t = std::isnan(requested) ? default_t : requested;
  if (std::isnan(t)) {
    DEEPAQP_LOG(Warning) << "model default_t is NaN; falling back to "
                            "accept-all generation (t = +inf)";
    return kTPlusInf;
  }
  return t;
}

}  // namespace

AqpClient::AqpClient(std::shared_ptr<const VaeAqpModel> model,
                     const Options& options)
    : options_(options),
      model_(std::move(model)),
      t_(ResolveThreshold(options.t, model_->default_t())),
      rng_(options.seed),
      pool_(model_->tuple_encoder().schema()) {
  GrowPool(options_.initial_samples);
}

util::Result<std::unique_ptr<AqpClient>> AqpClient::Open(
    const std::vector<uint8_t>& model_bytes, const Options& options) {
  DEEPAQP_ASSIGN_OR_RETURN(auto model,
                           VaeAqpModel::Deserialize(model_bytes));
  return std::unique_ptr<AqpClient>(
      new AqpClient(std::move(model), options));
}

std::unique_ptr<AqpClient> AqpClient::Wrap(
    std::unique_ptr<VaeAqpModel> model, const Options& options) {
  return std::unique_ptr<AqpClient>(
      new AqpClient(std::move(model), options));
}

std::unique_ptr<AqpClient> AqpClient::Share(
    std::shared_ptr<const VaeAqpModel> model, const Options& options) {
  return std::unique_ptr<AqpClient>(
      new AqpClient(std::move(model), options));
}

void AqpClient::SwapModel(std::shared_ptr<const VaeAqpModel> model) {
  model_ = std::move(model);
  t_ = ResolveThreshold(options_.t, model_->default_t());
  // Everything derived from the old generator is stale: pool rows, cached
  // predicate bitmaps, cached group moments. Rebuild from scratch exactly as
  // a fresh client would so swapped and newly opened clients are
  // bit-identical (the contract server_session_test pins down).
  rng_ = util::Rng(options_.seed);
  pool_ = relation::Table(model_->tuple_encoder().schema());
  pending_rows_ = 0;
  filter_cache_.clear();
  agg_cache_.clear();
  cache_stats_.filter_entries = 0;
  cache_stats_.agg_entries = 0;
  ++cache_stats_.invalidations;
  GrowPool(options_.initial_samples);
}

void AqpClient::GrowPool(size_t target_rows) {
  target_rows = std::min(target_rows, options_.max_samples);
  if (pool_.num_rows() >= target_rows) return;
  // Generate() fans the request out across the global thread pool in
  // fixed-size chunks seeded from rng_ via child streams, so the pool
  // contents depend only on options_.seed — not on the thread count.
  relation::Table extra =
      model_->Generate(target_rows - pool_.num_rows(), t_, rng_);
  if (pool_.num_rows() == 0) {
    pool_ = std::move(extra);
  } else {
    DEEPAQP_CHECK(pool_.Append(extra).ok());
  }
}

util::Result<aqp::QueryResult> AqpClient::Query(const std::string& sql) {
  DEEPAQP_ASSIGN_OR_RETURN(aqp::AggregateQuery query,
                           aqp::ParseSql(sql, pool_));
  return Query(query);
}

util::Result<aqp::QueryResult> AqpClient::Query(
    const aqp::AggregateQuery& query) {
  GrowPool(pending_rows_);
  pending_rows_ = 0;
  util::Result<aqp::QueryResult> result = QueryCached(query);
  // Bias-elimination widening: estimates are unchanged (bit-identical to a
  // healthy client), only their stated uncertainty grows.
  if (result.ok() && ci_inflation_ != 1.0) {
    for (auto& g : result->groups) g.ci_half_width *= ci_inflation_;
  }
  return result;
}

void AqpClient::NoteBiasElimination(const BiasEliminationResult& result) {
  if (result.outcome == BiasEliminationOutcome::kPassed) {
    ci_inflation_ = 1.0;
    return;
  }
  // The model never validated against the data: serve best-effort answers
  // with visibly widened confidence intervals instead of failing or, worse,
  // quietly pretending full confidence.
  constexpr double kUnvalidatedCiInflation = 1.5;
  ci_inflation_ = kUnvalidatedCiInflation;
  std::string why =
      result.outcome == BiasEliminationOutcome::kDegraded
          ? "bias elimination degraded"
          : "bias elimination budget exhausted";
  why += " (final_t=" + std::to_string(result.final_t) + ", " +
         std::to_string(result.iterations) + " iterations)";
  for (const std::string& w : result.warnings) why += "; " + w;
  why += "; confidence intervals widened by " +
         std::to_string(kUnvalidatedCiInflation) + "x";
  warnings_.push_back(why);
  DEEPAQP_LOG(Warning) << "AqpClient: " << why;
}

util::Result<aqp::QueryResult> AqpClient::QueryCached(
    const aqp::AggregateQuery& query) {
  DEEPAQP_RETURN_IF_ERROR(aqp::ValidateQuery(query, pool_));
  const size_t n = pool_.num_rows();
  if (n == 0) {
    return util::Status::FailedPrecondition("empty sample");
  }
  const bool group_by = query.IsGroupBy();
  const bool quantile = query.agg == aqp::AggFunc::kQuantile;

  // Extend the predicate's bitmap over rows appended since its last use.
  FilterCacheEntry& filter = filter_cache_[PredicateKey(query.filter)];
  if (filter.rows_seen < n) {
    aqp::EvalPredicate(query.filter, pool_, filter.rows_seen, n, &filter.sel);
    cache_stats_.rows_filtered += n - filter.rows_seen;
    filter.rows_seen = n;
  }

  // Fold the same suffix into the query's dense group moments. New group
  // codes can appear in generated suffix rows, so re-span the cardinality
  // before accumulating.
  AggCacheEntry& agg = agg_cache_[AggKey(query)];
  if (agg.rows_seen < n) {
    const size_t groups =
        group_by ? static_cast<size_t>(pool_.Cardinality(
                       static_cast<size_t>(query.group_by_attr)))
                 : 1;
    agg.acc.EnsureGroups(std::max<size_t>(groups, 1), quantile);
    aqp::AccumulateSelected(query, pool_, filter.sel, agg.rows_seen, n,
                            &agg.acc);
    cache_stats_.rows_aggregated += n - agg.rows_seen;
    agg.rows_seen = n;
  }
  cache_stats_.filter_entries = filter_cache_.size();
  cache_stats_.agg_entries = agg_cache_.size();

  return aqp::FinalizeEstimate(query, aqp::ToGroupMoments(agg.acc, group_by),
                               n, options_.population_rows);
}

util::Result<aqp::QueryResult> AqpClient::QueryRefineStep(
    const aqp::AggregateQuery& query, double max_relative_ci, bool* final) {
  DEEPAQP_ASSIGN_OR_RETURN(aqp::QueryResult result, Query(query));
  bool tight = true;
  for (const auto& g : result.groups) {
    const double denom = std::abs(g.value);
    const double rel = denom > 0 ? g.ci_half_width / denom
                                 : g.ci_half_width;
    if (rel > max_relative_ci) {
      tight = false;
      break;
    }
  }
  if (tight || pool_.num_rows() >= options_.max_samples) {
    *final = true;
    return result;
  }
  // Answer now; the doubling is generated when the next call asks for it.
  *final = false;
  pending_rows_ = pool_.num_rows() * 2;
  return result;
}

util::Result<aqp::QueryResult> AqpClient::QueryWithMaxRelativeCi(
    const aqp::AggregateQuery& query, double max_relative_ci) {
  for (;;) {
    bool final = false;
    DEEPAQP_ASSIGN_OR_RETURN(aqp::QueryResult result,
                             QueryRefineStep(query, max_relative_ci, &final));
    if (final) return result;
  }
}

}  // namespace deepaqp::vae
