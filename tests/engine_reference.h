#ifndef DEEPAQP_TESTS_ENGINE_REFERENCE_H_
#define DEEPAQP_TESTS_ENGINE_REFERENCE_H_

#include "aqp/query.h"
#include "relation/table.h"
#include "util/status.h"

namespace deepaqp::aqp {

// The row-at-a-time query engine the vector engine (aqp/engine.h)
// replaced: Predicate::Matches per row and std::map group accumulators.
// Kept only as the bit-identity oracle for aqp_engine_test, the way
// nn::ReferenceGemm serves the GEMM kernels: for equal inputs each function
// must return exactly the doubles of its production counterpart. Only the
// row walks are re-implemented; the finalizers (FinalizeExact,
// FinalizeEstimate) are the production ones.

util::Result<QueryResult> ReferenceExecuteExact(const AggregateQuery& query,
                                                const relation::Table& table);

util::Result<QueryResult> ReferenceEstimateFromSample(
    const AggregateQuery& query, const relation::Table& sample,
    size_t population_rows);

double ReferenceSelectivity(const AggregateQuery& query,
                            const relation::Table& table);

}  // namespace deepaqp::aqp

#endif  // DEEPAQP_TESTS_ENGINE_REFERENCE_H_
