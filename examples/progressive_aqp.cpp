// Progressive (online) AQP on top of the generative model: stream synthetic
// sample batches into an OnlineAggregator until the confidence interval is
// tight enough (Sec. VII: "our model based approach could be easily
// retrofitted into online aggregation systems"), then drill down with
// conditional generation and quantify error with the bootstrap.
//
//   ./progressive_aqp [--rows 15000] [--epochs 15] [--target_ci 0.02]

#include <cstdio>

#include "aqp/bootstrap.h"
#include "aqp/estimator.h"
#include "aqp/executor.h"
#include "aqp/metrics.h"
#include "aqp/online.h"
#include "data/generators.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "vae/vae_model.h"

using namespace deepaqp;  // NOLINT: example brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  util::ApplyThreadsFlag(flags);
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 15000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 15));
  const double target_ci = flags.GetDouble("target_ci", 0.02);
  flags.RejectUnread();

  relation::Table table = data::GenerateCensus({.rows = rows, .seed = 19});
  const relation::Schema& schema = table.schema();

  vae::VaeAqpOptions options;
  options.epochs = epochs;
  std::printf("Training on %zu census tuples...\n", rows);
  auto model = vae::VaeAqpModel::Train(table, options);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }

  // Progressive refinement: the user watches the estimate tighten and can
  // stop at any time; here we stop at a +-2% relative CI.
  aqp::AggregateQuery q;
  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = schema.IndexOf("hours_per_week");
  q.filter.conditions.push_back(
      {static_cast<size_t>(schema.IndexOf("sex")), aqp::CmpOp::kEq, 0.0});
  const double truth = aqp::ExecuteExact(q, table)->Scalar();
  std::printf("\n%s (exact %.3f)\n", q.ToString(schema).c_str(), truth);

  aqp::OnlineAggregator agg(q, table.num_rows());
  util::Rng rng(23);
  int batch_no = 0;
  while (!agg.Converged(target_ci) && batch_no < 200) {
    relation::Table batch = (*model)->Generate(250, rng);
    if (!agg.AddBatch(batch).ok()) return 1;
    ++batch_no;
    if (batch_no <= 5 || batch_no % 20 == 0) {
      auto cur = agg.Current();
      std::printf("  after %5zu tuples: %.3f +- %.3f\n",
                  agg.tuples_seen(), cur->Scalar(),
                  cur->groups[0].ci_half_width);
    }
  }
  auto final_est = agg.Current();
  std::printf("  converged at %zu tuples: %.3f +- %.3f (err %.2f%%)\n",
              agg.tuples_seen(), final_est->Scalar(),
              final_est->groups[0].ci_half_width,
              100.0 * aqp::RelativeError(final_est->Scalar(), truth));

  // Drill-down with conditional generation: rare sub-population (the
  // paper's "aggregates over rare sub-populations" use case).
  aqp::Predicate rare;
  rare.conditions.push_back(
      {static_cast<size_t>(schema.IndexOf("age")), aqp::CmpOp::kGe, 60.0});
  rare.conditions.push_back(
      {static_cast<size_t>(schema.IndexOf("workclass")), aqp::CmpOp::kGe,
       6.0});
  std::printf("\nConditional generation: age >= 60 AND workclass >= 6\n");
  relation::Table rare_sample =
      (*model)->GenerateWhere(400, rare, (*model)->default_t(), rng);
  std::printf("  got %zu conditional tuples\n", rare_sample.num_rows());
  if (rare_sample.num_rows() >= 30) {
    aqp::AggregateQuery rare_q;
    rare_q.agg = aqp::AggFunc::kAvg;
    rare_q.measure_attr = schema.IndexOf("hours_per_week");
    aqp::AggregateQuery rare_exact = rare_q;
    rare_exact.filter = rare;
    auto exact = aqp::ExecuteExact(rare_exact, table);
    auto est = aqp::ExecuteExact(rare_q, rare_sample);
    if (exact.ok() && est.ok() && !exact->groups.empty()) {
      std::printf("  AVG(hours) in sub-population: exact %.2f | "
                  "conditional-sample %.2f\n",
                  exact->Scalar(), est->Scalar());
    }
  }

  // Bootstrap CIs on a model sample vs the CLT interval.
  std::printf("\nBootstrap vs CLT interval on a 500-tuple model sample\n");
  relation::Table sample = (*model)->Generate(500, rng);
  aqp::AggregateQuery sum_q;
  sum_q.agg = aqp::AggFunc::kSum;
  sum_q.measure_attr = schema.IndexOf("capital_gain");
  auto plain = aqp::EstimateFromSample(sum_q, sample, table.num_rows());
  auto boot = aqp::BootstrapEstimate(sum_q, sample, table.num_rows(), {});
  if (plain.ok() && boot.ok()) {
    std::printf("  CLT:       %.3g +- %.3g\n", plain->Scalar(),
                plain->groups[0].ci_half_width);
    std::printf("  bootstrap: %.3g +- %.3g\n", boot->Scalar(),
                boot->groups[0].ci_half_width);
  }
  return 0;
}
