#include "engine_reference.h"

#include <algorithm>
#include <map>

#include "aqp/engine.h"
#include "aqp/executor.h"
#include "aqp/metrics.h"
#include "util/rng.h"

namespace deepaqp::aqp {

namespace {

/// Folds the rows of `table` that match the filter into `acc` in row
/// order, keyed by group code (-1 for a scalar query).
void AccumulateRows(const AggregateQuery& query, const relation::Table& table,
                    std::map<int32_t, GroupMoments>* acc) {
  const bool group_by = query.IsGroupBy();
  const auto gattr = static_cast<size_t>(std::max(query.group_by_attr, 0));
  const auto mattr = static_cast<size_t>(std::max(query.measure_attr, 0));
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!query.filter.Matches(table, r)) continue;
    const int32_t key = group_by ? table.CatCode(r, gattr) : -1;
    GroupMoments& g = (*acc)[key];
    g.group = key;
    const double x =
        query.agg == AggFunc::kCount ? 1.0 : table.NumValue(r, mattr);
    g.m.Add(x);
    if (query.agg == AggFunc::kQuantile) g.values.push_back(x);
  }
}

std::vector<GroupMoments> SortedGroups(std::map<int32_t, GroupMoments> acc) {
  std::vector<GroupMoments> out;
  for (auto& [key, g] : acc) out.push_back(std::move(g));
  return out;
}

std::vector<GroupMoments> AccumulateTable(const AggregateQuery& query,
                                          const relation::Table& table) {
  std::map<int32_t, GroupMoments> acc;
  AccumulateRows(query, table, &acc);
  return SortedGroups(std::move(acc));
}

}  // namespace

util::Result<QueryResult> ReferenceExecuteExact(const AggregateQuery& query,
                                                const relation::Table& table) {
  DEEPAQP_RETURN_IF_ERROR(ValidateQuery(query, table));
  return FinalizeExact(query, AccumulateTable(query, table));
}

util::Result<QueryResult> ReferenceEstimateFromSample(
    const AggregateQuery& query, const relation::Table& sample,
    size_t population_rows) {
  DEEPAQP_RETURN_IF_ERROR(ValidateQuery(query, sample));
  if (sample.num_rows() == 0) {
    return util::Status::FailedPrecondition("empty sample");
  }
  return FinalizeEstimate(query, AccumulateTable(query, sample),
                          sample.num_rows(), population_rows);
}

double ReferenceSelectivity(const AggregateQuery& query,
                            const relation::Table& table) {
  const size_t n = table.num_rows();
  if (n == 0) return 0.0;
  size_t hits = 0;
  for (size_t r = 0; r < n; ++r) {
    if (query.filter.Matches(table, r)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(n);
}

util::Result<QueryResult> ReferenceBootstrapEstimate(
    const AggregateQuery& query, const relation::Table& sample,
    size_t population_rows, const BootstrapOptions& options) {
  if (options.resamples < 2 || options.confidence <= 0.0 ||
      options.confidence >= 1.0) {
    return util::Status::InvalidArgument("bad bootstrap options");
  }
  DEEPAQP_ASSIGN_OR_RETURN(
      QueryResult point,
      ReferenceEstimateFromSample(query, sample, population_rows));

  const size_t ns = sample.num_rows();
  std::map<int32_t, std::vector<double>> replicate_values;
  util::Rng rng(options.seed);
  std::vector<size_t> pick(ns);
  for (int b = 0; b < options.resamples; ++b) {
    for (size_t i = 0; i < ns; ++i) pick[i] = rng.NextIndex(ns);
    auto est = ReferenceEstimateFromSample(query, sample.Gather(pick),
                                           population_rows);
    if (!est.ok()) continue;
    for (const GroupValue& g : est->groups) {
      replicate_values[g.group].push_back(g.value);
    }
  }

  const double lo_q = (1.0 - options.confidence) / 2.0;
  const double hi_q = 1.0 - lo_q;
  for (GroupValue& g : point.groups) {
    auto it = replicate_values.find(g.group);
    if (it == replicate_values.end() || it->second.size() < 2) continue;
    g.ci_half_width = (EmpiricalQuantile(it->second, hi_q) -
                       EmpiricalQuantile(it->second, lo_q)) /
                      2.0;
  }
  return point;
}

QueryResult ReferenceOnlineEstimate(
    const AggregateQuery& query, const std::vector<relation::Table>& batches,
    size_t population_rows) {
  std::map<int32_t, GroupMoments> acc;
  size_t tuples_seen = 0;
  for (const relation::Table& batch : batches) {
    AccumulateRows(query, batch, &acc);
    tuples_seen += batch.num_rows();
  }
  return FinalizeEstimate(query, SortedGroups(std::move(acc)), tuples_seen,
                          population_rows);
}

}  // namespace deepaqp::aqp
