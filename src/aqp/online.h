#ifndef DEEPAQP_AQP_ONLINE_H_
#define DEEPAQP_AQP_ONLINE_H_

#include <map>

#include "aqp/engine.h"
#include "aqp/query.h"
#include "relation/table.h"
#include "util/status.h"

namespace deepaqp::aqp {

/// Online-aggregation adapter (Hellerstein et al. [25], Sec. VII): consumes
/// random sample tuples in batches — e.g., streamed out of a generative
/// model — and maintains a continuously refined estimate with CLT
/// confidence intervals. The consumer stops as soon as the interval is
/// tight enough. COUNT/SUM/AVG only (quantiles need value retention, use
/// EstimateFromSample).
class OnlineAggregator {
 public:
  /// `population_rows` scales COUNT/SUM estimates, exactly as in
  /// EstimateFromSample.
  OnlineAggregator(AggregateQuery query, size_t population_rows);

  /// Feeds one batch of uniform sample tuples. The batch schema must match
  /// the first batch's schema; the query must validate against it. The
  /// filter runs as a selection-vector kernel over the batch; matched rows
  /// merge into the running moments in row order, so the estimate stream
  /// is bit-identical at every batch split.
  util::Status AddBatch(const relation::Table& batch);

  /// Current estimate (same shape as EstimateFromSample's result). Fails
  /// before any tuple has been consumed.
  util::Result<QueryResult> Current() const;

  /// True once every group's CI half-width is below `target` relative to
  /// its |value| (groups with value 0 compare absolutely). False before any
  /// data.
  bool Converged(double target_relative_ci) const;

  size_t tuples_seen() const { return tuples_seen_; }

 private:
  AggregateQuery query_;
  size_t population_rows_;
  size_t tuples_seen_ = 0;
  std::map<int32_t, Moments> groups_;
};

}  // namespace deepaqp::aqp

#endif  // DEEPAQP_AQP_ONLINE_H_
