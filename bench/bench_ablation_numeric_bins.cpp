// Ablation: numeric discretization budget. Fewer equi-depth bins shrink the
// encoded dimensionality (faster training, smaller model) but add in-bin
// uniform noise to every numeric measure; more bins do the opposite.
//
//   ./bench_ablation_numeric_bins [--rows 15000] [--epochs 12]

#include "bench_common.h"

#include "util/timer.h"

using namespace deepaqp;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 15000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 12));
  const auto queries = static_cast<size_t>(flags.GetInt("queries", 100));
  const int trials = static_cast<int>(flags.GetInt("trials", 8));
  const double sample_frac = flags.GetDouble("sample_frac", 0.05);
  bench::Init(flags);

  for (const std::string dataset : {"census", "flights"}) {
    relation::Table table = bench::MakeDataset(dataset, rows);
    auto workload = bench::MakeWorkload(table, queries);
    for (int bins : {8, 16, 32, 64}) {
      vae::VaeAqpOptions options = bench::DefaultVaeOptions(epochs);
      options.encoder.numeric_bins = bins;
      util::Stopwatch watch;
      auto model = vae::VaeAqpModel::Train(table, options);
      if (!model.ok()) return 1;
      const double train_seconds = watch.ElapsedSeconds();
      aqp::EvalOptions opts;
      opts.num_trials = trials;
      opts.sample_fraction = sample_frac;
      auto red = aqp::RelativeErrorDifferences(
          workload, table, (*model)->MakeSampler((*model)->default_t()),
          opts);
      if (!red.ok()) return 1;
      char series[48];
      std::snprintf(series, sizeof(series), "bins=%d d=%zu (%.0fs)", bins,
                    (*model)->tuple_encoder().encoded_dim(), train_seconds);
      bench::PrintRedRow("AblBins", dataset, series,
                         aqp::DistributionSummary::FromValues(*red));
    }
  }
  return 0;
}
