#include "engine_reference.h"

#include <algorithm>
#include <map>

#include "aqp/engine.h"
#include "aqp/executor.h"

namespace deepaqp::aqp {

namespace {

/// Folds the rows of `table` that match the filter into per-group moments
/// in row order, keyed by group code (-1 for a scalar query), and returns
/// them sorted by code.
std::vector<GroupMoments> AccumulateTable(const AggregateQuery& query,
                                          const relation::Table& table) {
  const bool group_by = query.IsGroupBy();
  const auto gattr = static_cast<size_t>(std::max(query.group_by_attr, 0));
  const auto mattr = static_cast<size_t>(std::max(query.measure_attr, 0));
  std::map<int32_t, GroupMoments> acc;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (!query.filter.Matches(table, r)) continue;
    const int32_t key = group_by ? table.CatCode(r, gattr) : -1;
    GroupMoments& g = acc[key];
    g.group = key;
    const double x =
        query.agg == AggFunc::kCount ? 1.0 : table.NumValue(r, mattr);
    g.m.Add(x);
    if (query.agg == AggFunc::kQuantile) g.values.push_back(x);
  }
  std::vector<GroupMoments> out;
  for (auto& [key, g] : acc) out.push_back(std::move(g));
  return out;
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

}  // namespace deepaqp::aqp
