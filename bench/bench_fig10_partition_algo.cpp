// Fig. 10: greedy vs dynamic-programming partition selection over an OLAP
// hierarchy. Each candidate part is scored by the R-ELBO loss of a probe
// VAE trained on it; the K-part cut chosen by each algorithm then trains a
// full ensemble whose RED is reported. Expectation (paper): the DP's
// R-ELBO-cognizant cut gives equal or better partitions than greedy,
// especially on Flights' more complex R-ELBO landscape.
//
//   ./bench_fig10_partition_algo [--rows 15000] [--epochs 10] [--k 3]

#include <map>

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
  const int k = static_cast<int>(flags.GetInt("k", 3));
  bench::Init(flags);

  for (const std::string dataset : {"census", "flights"}) {
    relation::Table table = bench::MakeDataset(dataset, rows);
    auto workload = bench::MakeWorkload(table, queries);
    const auto attr = static_cast<size_t>(
        dataset == "census" ? table.schema().IndexOf("education")
                            : table.schema().IndexOf("origin_state"));
    auto groups = ensemble::GroupByAttribute(table, attr, 0.04);
    auto hierarchy =
        ensemble::MakeBalancedHierarchy(static_cast<int>(groups.size()));

    vae::VaeAqpOptions probe = bench::DefaultVaeOptions(
        std::max(3, epochs / 2));
    probe.hidden_dim = 32;
    // Memoize probe trainings across the DP and greedy runs.
    std::map<std::vector<int>, double> score_cache;
    auto score = [&](const std::vector<int>& part) {
      auto it = score_cache.find(part);
      if (it != score_cache.end()) return it->second;
      const double value = [&] {
      std::vector<size_t> part_rows;
      for (int g : part) {
        part_rows.insert(part_rows.end(), groups[g].rows.begin(),
                         groups[g].rows.end());
      }
      relation::Table part_table = table.Gather(part_rows);
      auto model = vae::VaeAqpModel::Train(part_table, probe);
      if (!model.ok()) return 1e9;
      util::Rng rng(511);
      return (*model)->RElboLoss(part_table, (*model)->default_t(), rng,
                                 768);
      }();
      score_cache[part] = value;
      return value;
    };

    auto dp = ensemble::PartitionHierarchyDp(hierarchy, score, k);
    auto greedy = ensemble::PartitionHierarchyGreedy(hierarchy, score, k);
    if (!dp.ok() || !greedy.ok()) return 1;

    vae::VaeAqpOptions options = bench::DefaultVaeOptions(epochs);
    options.hidden_dim = 48;
    const std::pair<const char*, const ensemble::Partition*> algos[] = {
        {"greedy", &*greedy}, {"dynamic-programming", &*dp}};
    for (const auto& [name, partition] : algos) {
      auto model = ensemble::EnsembleModel::Train(table, groups, *partition,
                                                  options);
      if (!model.ok()) return 1;
      aqp::EvalOptions opts;
      opts.num_trials = trials;
      opts.sample_fraction = sample_frac;
      auto red = aqp::RelativeErrorDifferences(
          workload, table, (*model)->MakeSampler(vae::kTPlusInf), opts);
      if (!red.ok()) return 1;
      char series[64];
      std::snprintf(series, sizeof(series), "%s (score=%.2f,parts=%zu)",
                    name, partition->total_score, partition->parts.size());
      bench::PrintRedRow("Fig10", dataset, series,
                         aqp::DistributionSummary::FromValues(*red));
    }
  }
  return 0;
}
