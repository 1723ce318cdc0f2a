// Property tests of the vectorized query engine: for random tables x query
// shapes x selectivities (including empty selections and AVG-of-empty), the
// engine must produce results bit-identical to the row-at-a-time reference
// (engine_reference.h), at every --threads setting, across ExecuteExact,
// EstimateFromSample and Selectivity.

#include "aqp/engine.h"

#include <cstring>

#include <gtest/gtest.h>

#include "aqp/estimator.h"
#include "aqp/executor.h"
#include "data/generators.h"
#include "data/workload.h"
#include "engine_reference.h"
#include "util/thread_pool.h"

namespace deepaqp::aqp {
namespace {

using relation::AttrType;
using relation::Datum;
using relation::Schema;
using relation::Table;

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Bit-level equality, so NaN == NaN and +0.0 != -0.0: engine and reference
/// must agree on the exact doubles, not just approximately.
void ExpectBitIdentical(const QueryResult& scalar, const QueryResult& vector,
                        const std::string& context) {
  ASSERT_EQ(scalar.groups.size(), vector.groups.size()) << context;
  for (size_t i = 0; i < scalar.groups.size(); ++i) {
    const GroupValue& s = scalar.groups[i];
    const GroupValue& v = vector.groups[i];
    EXPECT_EQ(s.group, v.group) << context << " group " << i;
    EXPECT_EQ(s.support, v.support) << context << " group " << i;
    EXPECT_EQ(Bits(s.value), Bits(v.value))
        << context << " group " << i << " value " << s.value << " vs "
        << v.value;
    EXPECT_EQ(Bits(s.ci_half_width), Bits(v.ci_half_width))
        << context << " group " << i << " ci " << s.ci_half_width << " vs "
        << v.ci_half_width;
  }
}

TEST(EngineTest, SelectionVectorResizeAndCount) {
  SelectionVector sel;
  sel.Resize(130);
  sel.Set(0);
  sel.Set(63);
  sel.Set(64);
  sel.Set(129);
  EXPECT_EQ(sel.CountRange(0, 130), 4u);
  EXPECT_EQ(sel.CountRange(1, 129), 2u);
  EXPECT_EQ(sel.CountRange(64, 64), 0u);
  EXPECT_TRUE(sel.Test(63));
  EXPECT_FALSE(sel.Test(62));
  // Shrinking clears the tail so a later regrow starts from zero bits.
  sel.Resize(64);
  sel.Resize(130);
  EXPECT_EQ(sel.CountRange(0, 130), 2u);
}

TEST(EngineTest, RandomizedWorkloadBitIdenticalAcrossEnginesAndThreads) {
  struct DatasetSpec {
    const char* name;
    Table table;
  };
  std::vector<DatasetSpec> datasets;
  datasets.push_back({"census", data::GenerateCensus({.rows = 2000, .seed = 11})});
  datasets.push_back({"taxi", data::GenerateTaxi({.rows = 2500, .seed = 12})});

  for (const DatasetSpec& ds : datasets) {
    data::WorkloadConfig wc;
    wc.num_queries = 25;
    wc.seed = 31;
    wc.group_by_prob = 0.5;
    wc.quantile_prob = 0.25;
    const auto workload = data::GenerateWorkload(ds.table, wc);
    ASSERT_FALSE(workload.empty());
    const size_t population = ds.table.num_rows() * 10;

    for (int threads : {1, 3}) {
      util::SetGlobalThreads(threads);
      for (size_t qi = 0; qi < workload.size(); ++qi) {
        const AggregateQuery& q = workload[qi];
        const std::string ctx = std::string(ds.name) + " q" +
                                std::to_string(qi) + " threads=" +
                                std::to_string(threads);

        auto exact_s = ReferenceExecuteExact(q, ds.table);
        auto exact_v = ExecuteExact(q, ds.table);
        ASSERT_TRUE(exact_s.ok() && exact_v.ok()) << ctx;
        ExpectBitIdentical(*exact_s, *exact_v, ctx + " exact");

        auto est_s = ReferenceEstimateFromSample(q, ds.table, population);
        auto est_v = EstimateFromSample(q, ds.table, population);
        ASSERT_TRUE(est_s.ok() && est_v.ok()) << ctx;
        ExpectBitIdentical(*est_s, *est_v, ctx + " estimate");

        const double sel_s = ReferenceSelectivity(q, ds.table);
        const double sel_v = Selectivity(q, ds.table);
        EXPECT_EQ(Bits(sel_s), Bits(sel_v)) << ctx << " selectivity";
      }
    }
    util::SetGlobalThreads(0);
  }
}

Table EdgeTable() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("grp", AttrType::kCategorical).ok());
  EXPECT_TRUE(s.AddAttribute("val", AttrType::kNumeric).ok());
  Table t(s);
  t.AppendRow({Datum::Categorical(0), Datum::Numeric(1.5)});
  t.AppendRow({Datum::Categorical(2), Datum::Numeric(-3.0)});
  t.AppendRow({Datum::Categorical(0), Datum::Numeric(0.0)});
  t.AppendRow({Datum::Categorical(1), Datum::Numeric(7.25)});
  // Declared cardinality above the observed max exercises empty dense slots.
  t.DeclareCardinality(0, 6);
  return t;
}

TEST(EngineTest, EmptySelectionsAndEdgeShapesMatchScalar) {
  Table t = EdgeTable();
  std::vector<AggregateQuery> queries;

  for (AggFunc agg :
       {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg, AggFunc::kQuantile}) {
    for (int group_by : {-1, 0}) {
      // Impossible filter: empty selection (AVG/QUANTILE of empty).
      AggregateQuery empty;
      empty.agg = agg;
      empty.measure_attr = agg == AggFunc::kCount ? -1 : 1;
      empty.group_by_attr = group_by;
      empty.filter.conditions.push_back({1, CmpOp::kGt, 1e9});
      queries.push_back(empty);

      // Empty predicate: everything matches.
      AggregateQuery all = empty;
      all.filter.conditions.clear();
      queries.push_back(all);

      // Disjunctive multi-condition filter.
      AggregateQuery dis = empty;
      dis.filter.conditions = {{1, CmpOp::kLt, 0.0}, {0, CmpOp::kEq, 1.0}};
      dis.filter.conjunctive = false;
      queries.push_back(dis);

      // Conjunctive filter mixing categorical and numeric columns.
      AggregateQuery con = empty;
      con.filter.conditions = {{0, CmpOp::kLe, 1.0}, {1, CmpOp::kGe, 0.0}};
      queries.push_back(con);
    }
  }

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const AggregateQuery& q = queries[qi];
    const std::string ctx = "edge q" + std::to_string(qi);
    auto exact_s = ReferenceExecuteExact(q, t);
    auto exact_v = ExecuteExact(q, t);
    ASSERT_TRUE(exact_s.ok() && exact_v.ok()) << ctx;
    ExpectBitIdentical(*exact_s, *exact_v, ctx + " exact");

    auto est_s = ReferenceEstimateFromSample(q, t, 40);
    auto est_v = EstimateFromSample(q, t, 40);
    ASSERT_TRUE(est_s.ok() && est_v.ok()) << ctx;
    ExpectBitIdentical(*est_s, *est_v, ctx + " estimate");
  }

  // The explicit semantic anchors: empty COUNT is 0, empty AVG is absent.
  AggregateQuery count_none;
  count_none.filter.conditions.push_back({1, CmpOp::kGt, 1e9});
  EXPECT_EQ(ExecuteExact(count_none, t)->Scalar(), 0.0);
  AggregateQuery avg_none = count_none;
  avg_none.agg = AggFunc::kAvg;
  avg_none.measure_attr = 1;
  EXPECT_TRUE(ExecuteExact(avg_none, t)->groups.empty());
}

}  // namespace
}  // namespace deepaqp::aqp
