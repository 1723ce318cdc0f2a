// Fig. 9: one vs multiple VAEs at equal cumulative capacity (K = 1, 5,
// All). Expectation (paper): more, finer-grained models lower RED; the
// single model at K-times capacity shows diminishing returns.
//
//   ./bench_fig9_num_models [--rows 15000] [--epochs 10] [--queries 50]

#include <algorithm>

#include "bench_common.h"

#include "ensemble/ensemble_model.h"
#include "ensemble/partitioning.h"

using namespace deepaqp;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 15000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 10));
  const auto queries = static_cast<size_t>(flags.GetInt("queries", 50));
  const int trials = static_cast<int>(flags.GetInt("trials", 5));
  const double sample_frac = flags.GetDouble("sample_frac", 0.05);
  bench::Init(flags);
  const size_t member_hidden = 24;

  for (const std::string dataset : {"census", "flights"}) {
    relation::Table table = bench::MakeDataset(dataset, rows);
    auto workload = bench::MakeWorkload(table, queries);
    const auto attr = static_cast<size_t>(
        dataset == "census" ? table.schema().IndexOf("marital_status")
                            : table.schema().IndexOf("origin_state"));
    auto groups = ensemble::GroupByAttribute(table, attr, 0.04);
    const int all_k = static_cast<int>(groups.size());

    for (int k : {1, std::min(5, all_k), all_k}) {
      // Contiguous split of the group list into k parts (groups are code-
      // ordered; this matches the paper's semantic groupings).
      ensemble::Partition partition;
      partition.parts.resize(k);
      for (int g = 0; g < all_k; ++g) {
        partition.parts[g * k / all_k].push_back(g);
      }
      vae::VaeAqpOptions options = bench::DefaultVaeOptions(epochs);
      // Equal cumulative capacity: hidden units scale inversely with K.
      options.hidden_dim =
          member_hidden * static_cast<size_t>(all_k) /
          std::max<size_t>(1, static_cast<size_t>(k));
      auto model =
          ensemble::EnsembleModel::Train(table, groups, partition, options);
      if (!model.ok()) {
        std::fprintf(stderr, "ensemble train failed: %s\n",
                     model.status().ToString().c_str());
        return 1;
      }
      aqp::EvalOptions opts;
      opts.num_trials = trials;
      opts.sample_fraction = sample_frac;
      auto red = aqp::RelativeErrorDifferences(
          workload, table, (*model)->MakeSampler(vae::kTPlusInf), opts);
      if (!red.ok()) return 1;
      char series[48];
      std::snprintf(series, sizeof(series), "K=%d (hidden=%zu)", k,
                    options.hidden_dim);
      bench::PrintRedRow("Fig9", dataset, series,
                         aqp::DistributionSummary::FromValues(*red));
    }
  }
  return 0;
}
