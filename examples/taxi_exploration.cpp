// The paper's introductory case study: interactive exploration of a taxi
// dataset entirely on the client. The server trains and ships a few-hundred-
// KB model; the client then answers ad-hoc aggregates — including the
// paper's examples "average passengers on trips starting from Manhattan"
// and "average trip duration grouped by hour" — without contacting the
// server again.
//
//   ./taxi_exploration [--rows 20000] [--epochs 20] [--sample_frac 0.02]

#include <cstdio>

#include "aqp/estimator.h"
#include "aqp/executor.h"
#include "aqp/metrics.h"
#include "data/generators.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "vae/vae_model.h"

using namespace deepaqp;  // NOLINT: example brevity

namespace {

void PrintGroupBy(const relation::Table& table,
                  const relation::Table& sample,
                  const aqp::AggregateQuery& query) {
  auto exact = aqp::ExecuteExact(query, table);
  auto est = aqp::EstimateFromSample(query, sample, table.num_rows());
  std::printf("%s\n", query.ToString(table.schema()).c_str());
  std::printf("  %-10s %10s %10s %12s\n", "group", "exact", "estimate",
              "95%-CI");
  const auto gattr = static_cast<size_t>(query.group_by_attr);
  for (const auto& g : exact->groups) {
    const aqp::GroupValue* e = est->Find(g.group);
    const std::string label =
        table.dict(gattr).size() > g.group
            ? table.dict(gattr).LabelOf(g.group)
            : std::to_string(g.group);
    if (e == nullptr) {
      std::printf("  %-10s %10.2f %10s %12s\n", label.c_str(), g.value,
                  "missing", "");
    } else {
      std::printf("  %-10s %10.2f %10.2f %11.2f\n", label.c_str(), g.value,
                  e->value, e->ci_half_width);
    }
  }
  std::printf("  group-by avg rel err: %.2f%%\n\n",
              100.0 * aqp::ResultRelativeError(*est, *exact));
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  util::ApplyThreadsFlag(flags);
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 20000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 20));
  const double sample_frac = flags.GetDouble("sample_frac", 0.02);
  flags.RejectUnread();

  relation::Table table = data::GenerateTaxi({.rows = rows, .seed = 11});
  const relation::Schema& schema = table.schema();

  vae::VaeAqpOptions options;
  options.epochs = epochs;
  std::printf("Training the exploration model on %zu trips...\n", rows);
  auto model = vae::VaeAqpModel::Train(table, options);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  std::printf("Shipping %.1f KB to the client.\n\n",
              (*model)->ModelSizeBytes() / 1024.0);

  util::Rng rng(17);
  relation::Table sample =
      (*model)->Generate(static_cast<size_t>(sample_frac * rows), rng);

  // Q1: average passengers on trips starting from Manhattan.
  aqp::AggregateQuery q1;
  q1.agg = aqp::AggFunc::kAvg;
  q1.measure_attr = schema.IndexOf("passengers");
  q1.filter.conditions.push_back(
      {static_cast<size_t>(schema.IndexOf("pickup_borough")),
       aqp::CmpOp::kEq, 0.0});
  const double exact1 = aqp::ExecuteExact(q1, table)->Scalar();
  auto est1 = aqp::EstimateFromSample(q1, sample, table.num_rows());
  std::printf("%s\n  exact %.3f | estimate %.3f +- %.3f (err %.2f%%)\n\n",
              q1.ToString(schema).c_str(), exact1, est1->Scalar(),
              est1->groups[0].ci_half_width,
              100.0 * aqp::RelativeError(est1->Scalar(), exact1));

  // Q2: average trip duration grouped by payment type (small groups table).
  aqp::AggregateQuery q2;
  q2.agg = aqp::AggFunc::kAvg;
  q2.measure_attr = schema.IndexOf("duration_min");
  q2.group_by_attr = schema.IndexOf("payment_type");
  PrintGroupBy(table, sample, q2);

  // Q3: rush-hour fares by borough (correlated filter + group-by).
  aqp::AggregateQuery q3;
  q3.agg = aqp::AggFunc::kAvg;
  q3.measure_attr = schema.IndexOf("fare");
  q3.group_by_attr = schema.IndexOf("pickup_borough");
  q3.filter.conditions.push_back(
      {static_cast<size_t>(schema.IndexOf("trip_distance")),
       aqp::CmpOp::kGt, 2.0});
  PrintGroupBy(table, sample, q3);

  // Q4: the client needs more precision -> just generate more samples
  // locally (the paper's "as many samples as needed" property).
  aqp::AggregateQuery q4;
  q4.agg = aqp::AggFunc::kCount;
  q4.filter.conditions.push_back(
      {static_cast<size_t>(schema.IndexOf("passengers")),
       aqp::CmpOp::kGe, 4.0});
  const double exact4 = aqp::ExecuteExact(q4, table)->Scalar();
  std::printf("%s (exact %.0f)\n", q4.ToString(schema).c_str(), exact4);
  for (size_t mult : {1, 4, 16}) {
    relation::Table big =
        (*model)->Generate(sample.num_rows() * mult, rng);
    auto est = aqp::EstimateFromSample(q4, big, table.num_rows());
    std::printf("  %6zu samples: estimate %10.0f +- %8.0f\n",
                big.num_rows(), est->Scalar(),
                est->groups[0].ci_half_width);
  }
  return 0;
}
