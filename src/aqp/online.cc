#include "aqp/online.h"

#include <algorithm>
#include <cmath>

#include "aqp/engine.h"
#include "aqp/executor.h"

namespace deepaqp::aqp {

namespace {
constexpr double kZ95 = 1.959963985;
}  // namespace

OnlineAggregator::OnlineAggregator(AggregateQuery query,
                                   size_t population_rows)
    : query_(std::move(query)), population_rows_(population_rows) {}

util::Status OnlineAggregator::AddBatch(const relation::Table& batch) {
  if (query_.agg == AggFunc::kQuantile) {
    return util::Status::Unimplemented(
        "online aggregation maintains moments only; no quantiles");
  }
  DEEPAQP_RETURN_IF_ERROR(ValidateQuery(query_, batch));
  const bool group_by = query_.IsGroupBy();
  const auto gattr = static_cast<size_t>(std::max(query_.group_by_attr, 0));
  const auto mattr = static_cast<size_t>(std::max(query_.measure_attr, 0));
  const size_t n = batch.num_rows();
  // Filter the whole batch with the selection kernel, then merge only the
  // matched rows in ascending row order, so the running moments do not
  // depend on how the stream is split into batches.
  SelectionVector sel;
  EvalPredicate(query_.filter, batch, 0, n, &sel);
  const int32_t* codes = group_by ? batch.CatColumn(gattr).data() : nullptr;
  const double* meas = query_.agg == AggFunc::kCount
                           ? nullptr
                           : batch.NumColumn(mattr).data();
  tuples_seen_ += n;
  for (size_t r = 0; r < n; ++r) {
    if (!sel.Test(r)) continue;
    const int32_t key = group_by ? codes[r] : -1;
    groups_[key].Add(meas == nullptr ? 1.0 : meas[r]);
  }
  return util::Status::OK();
}

util::Result<QueryResult> OnlineAggregator::Current() const {
  if (tuples_seen_ == 0) {
    return util::Status::FailedPrecondition("no tuples consumed yet");
  }
  const double ns = static_cast<double>(tuples_seen_);
  const double scale = static_cast<double>(population_rows_) / ns;
  QueryResult result;
  for (const auto& [key, m] : groups_) {
    GroupValue g;
    g.group = key;
    g.support = m.count;
    const double k = static_cast<double>(m.count);
    switch (query_.agg) {
      case AggFunc::kCount: {
        g.value = scale * k;
        const double p = k / ns;
        g.ci_half_width = scale * kZ95 * std::sqrt(ns * p * (1.0 - p));
        break;
      }
      case AggFunc::kSum: {
        g.value = scale * m.sum;
        const double mean_contrib = m.sum / ns;
        const double var_contrib =
            std::max(0.0, m.sum_sq / ns - mean_contrib * mean_contrib);
        g.ci_half_width = scale * kZ95 * std::sqrt(var_contrib * ns);
        break;
      }
      case AggFunc::kAvg: {
        g.value = m.sum / k;
        if (m.count >= 2) {
          const double mean = m.sum / k;
          const double var = std::max(
              0.0, (m.sum_sq / k - mean * mean) * k / (k - 1.0));
          g.ci_half_width = kZ95 * std::sqrt(var / k);
        }
        break;
      }
      case AggFunc::kQuantile:
        break;  // rejected in AddBatch
    }
    result.groups.push_back(g);
  }
  if (!query_.IsGroupBy() && result.groups.empty() &&
      (query_.agg == AggFunc::kCount || query_.agg == AggFunc::kSum)) {
    result.groups.push_back(GroupValue{-1, 0.0, 0, 0.0});
  }
  return result;
}

bool OnlineAggregator::Converged(double target_relative_ci) const {
  auto current = Current();
  if (!current.ok() || current->groups.empty()) return false;
  for (const GroupValue& g : current->groups) {
    const double denom = std::abs(g.value);
    const double rel =
        denom > 0 ? g.ci_half_width / denom : g.ci_half_width;
    if (rel > target_relative_ci) return false;
  }
  return true;
}

}  // namespace deepaqp::aqp
