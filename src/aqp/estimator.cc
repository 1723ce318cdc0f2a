#include "aqp/estimator.h"

#include "aqp/engine.h"
#include "aqp/executor.h"

namespace deepaqp::aqp {

util::Result<QueryResult> EstimateFromSample(const AggregateQuery& query,
                                             const relation::Table& sample,
                                             size_t population_rows) {
  DEEPAQP_RETURN_IF_ERROR(ValidateQuery(query, sample));
  const size_t ns = sample.num_rows();
  if (ns == 0) {
    return util::Status::FailedPrecondition("empty sample");
  }
  // Accumulation and the estimate/CI formulas are the shared helpers in
  // aqp/engine.h, so this path, ExecuteExact and the client's query cache
  // all aggregate through the same code.
  return FinalizeEstimate(query, AccumulateQuery(query, sample), ns,
                          population_rows);
}

}  // namespace deepaqp::aqp
