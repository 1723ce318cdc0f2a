// Progressive AQP on top of the generative model: the client answers on its
// current sample pool and doubles the pool, step by step, until the
// confidence interval is tight enough (Sec. VII: "our model based approach
// could be easily retrofitted into online aggregation systems"). This is
// the loop the server streams to its sessions. Then it drills down with
// conditional generation.
//
//   ./progressive_aqp [--rows 15000] [--epochs 15] [--target_ci 0.02]

#include <cstdio>

#include "aqp/executor.h"
#include "aqp/metrics.h"
#include "data/generators.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "vae/client.h"
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

  // Progressive refinement: every step answers on the pool the client
  // holds, so the user watches the estimate tighten and can stop at any
  // time; here the client stops at the target relative CI.
  aqp::AggregateQuery q;
  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = schema.IndexOf("hours_per_week");
  q.filter.conditions.push_back(
      {static_cast<size_t>(schema.IndexOf("sex")), aqp::CmpOp::kEq, 0.0});
  const double truth = aqp::ExecuteExact(q, table)->Scalar();
  std::printf("\n%s (exact %.3f)\n", q.ToString(schema).c_str(), truth);

  vae::AqpClient::Options copts;
  copts.initial_samples = 250;
  copts.max_samples = 64000;
  copts.population_rows = table.num_rows();
  copts.seed = 23;
  auto client = vae::AqpClient::Wrap(std::move(model).value(), copts);
  double estimate = 0.0;
  for (bool final = false; !final;) {
    auto step = client->QueryRefineStep(q, target_ci, &final);
    if (!step.ok() || step->groups.empty()) {
      std::fprintf(stderr, "refine step failed: %s\n",
                   step.status().ToString().c_str());
      return 1;
    }
    estimate = step->Scalar();
    std::printf("  %6zu samples: %.3f +- %.3f\n", client->pool_size(),
                estimate, step->groups[0].ci_half_width);
  }
  std::printf("  final at %zu samples (err %.2f%%)\n", client->pool_size(),
              100.0 * aqp::RelativeError(estimate, truth));

  // Drill-down with conditional generation: rare sub-population (the
  // paper's "aggregates over rare sub-populations" use case).
  aqp::Predicate rare;
  rare.conditions.push_back(
      {static_cast<size_t>(schema.IndexOf("age")), aqp::CmpOp::kGe, 60.0});
  rare.conditions.push_back(
      {static_cast<size_t>(schema.IndexOf("workclass")), aqp::CmpOp::kGe,
       6.0});
  std::printf("\nConditional generation: age >= 60 AND workclass >= 6\n");
  util::Rng rng(23);
  const vae::VaeAqpModel& generator = client->model();
  relation::Table rare_sample =
      generator.GenerateWhere(400, rare, generator.default_t(), rng);
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
  return 0;
}
