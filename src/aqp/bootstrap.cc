#include "aqp/bootstrap.h"

#include <algorithm>
#include <map>
#include <vector>

#include "aqp/engine.h"
#include "aqp/estimator.h"
#include "aqp/metrics.h"

namespace deepaqp::aqp {

namespace {

/// One replicate's estimate for a group with at least one matching pick —
/// the same value formulas as FinalizeEstimate (the CI terms are not
/// needed per replicate). `values` is the group's retained measure values
/// (QUANTILE only); it is sorted in place.
double ReplicateValue(const AggregateQuery& query, const Moments& m,
                      std::vector<double>* values, double scale) {
  switch (query.agg) {
    case AggFunc::kCount:
      return scale * static_cast<double>(m.count);
    case AggFunc::kSum:
      return scale * m.sum;
    case AggFunc::kAvg:
      return m.Mean();
    case AggFunc::kQuantile:
      std::sort(values->begin(), values->end());
      return SampleQuantileOfSorted(*values, query.quantile);
  }
  return 0.0;
}

/// Resamples cached per-row contributions instead of materializing tables:
/// the filter bitmap, group codes, and measure column are computed/fetched
/// once, then each replicate is one pass over the pick vector into a dense
/// accumulator that is cleared (not reallocated) between replicates. No
/// Gather, no re-filtering, and — after the first replicate — no
/// allocation. Replicate values are bit-identical to running
/// EstimateFromSample on the materialized resample, because each group's
/// moments see the same additions in the same (pick) order.
void Replicates(const AggregateQuery& query, const relation::Table& sample,
                size_t population_rows, const BootstrapOptions& options,
                std::map<int32_t, std::vector<double>>* replicate_values) {
  const size_t ns = sample.num_rows();
  const bool group_by = query.IsGroupBy();
  const bool quantile = query.agg == AggFunc::kQuantile;
  const double scale =
      static_cast<double>(population_rows) / static_cast<double>(ns);
  const int32_t* codes =
      group_by
          ? sample.CatColumn(static_cast<size_t>(query.group_by_attr)).data()
          : nullptr;
  const double* meas =
      query.agg == AggFunc::kCount
          ? nullptr
          : sample.NumColumn(static_cast<size_t>(query.measure_attr)).data();

  SelectionVector sel;
  EvalPredicate(query.filter, sample, 0, ns, &sel);
  // Byte mask for the random-access pattern of the replicate loop.
  std::vector<uint8_t> match(ns);
  for (size_t r = 0; r < ns; ++r) match[r] = sel.Test(r);

  DenseGroupMoments acc;
  const size_t groups =
      group_by ? static_cast<size_t>(sample.Cardinality(
                     static_cast<size_t>(query.group_by_attr)))
               : 1;
  acc.EnsureGroups(std::max<size_t>(groups, 1), quantile);

  util::Rng rng(options.seed);
  std::vector<size_t> pick(ns);
  for (int b = 0; b < options.resamples; ++b) {
    for (size_t i = 0; i < ns; ++i) pick[i] = rng.NextIndex(ns);
    acc.Clear();
    for (size_t i = 0; i < ns; ++i) {
      const size_t r = pick[i];
      if (!match[r]) continue;
      const size_t slot = group_by ? static_cast<size_t>(codes[r]) : 0;
      const double x = meas == nullptr ? 1.0 : meas[r];
      acc.m[slot].Add(x);
      if (quantile) acc.values[slot].push_back(x);
    }
    if (!group_by) {
      const Moments& m = acc.m[0];
      if (m.count > 0) {
        (*replicate_values)[-1].push_back(ReplicateValue(
            query, m, quantile ? &acc.values[0] : nullptr, scale));
      } else if (query.agg == AggFunc::kCount ||
                 query.agg == AggFunc::kSum) {
        // Empty-selection convention: EstimateFromSample reports 0 for
        // COUNT/SUM, so the replicate contributes 0.
        (*replicate_values)[-1].push_back(0.0);
      }
    } else {
      for (size_t slot = 0; slot < acc.m.size(); ++slot) {
        if (acc.m[slot].count == 0) continue;
        (*replicate_values)[static_cast<int32_t>(slot)].push_back(
            ReplicateValue(query, acc.m[slot],
                           quantile ? &acc.values[slot] : nullptr, scale));
      }
    }
  }
}

}  // namespace

util::Result<QueryResult> BootstrapEstimate(const AggregateQuery& query,
                                            const relation::Table& sample,
                                            size_t population_rows,
                                            const BootstrapOptions& options) {
  if (options.resamples < 2 || options.confidence <= 0.0 ||
      options.confidence >= 1.0) {
    return util::Status::InvalidArgument("bad bootstrap options");
  }
  DEEPAQP_ASSIGN_OR_RETURN(
      QueryResult point, EstimateFromSample(query, sample, population_rows));

  std::map<int32_t, std::vector<double>> replicate_values;
  Replicates(query, sample, population_rows, options, &replicate_values);

  const double lo_q = (1.0 - options.confidence) / 2.0;
  const double hi_q = 1.0 - lo_q;
  for (GroupValue& g : point.groups) {
    auto it = replicate_values.find(g.group);
    if (it == replicate_values.end() || it->second.size() < 2) {
      continue;  // keep the CLT width from EstimateFromSample
    }
    const double lo = EmpiricalQuantile(it->second, lo_q);
    const double hi = EmpiricalQuantile(it->second, hi_q);
    g.ci_half_width = (hi - lo) / 2.0;
  }
  return point;
}

}  // namespace deepaqp::aqp
