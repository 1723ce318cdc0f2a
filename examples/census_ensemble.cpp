// Multi-VAE ensembles (paper Sec. V): partition a census relation into
// atomic groups, score candidate partitions with R-ELBO, pick the optimal
// K-way partition with the hierarchy DP (vs. the greedy baseline), train
// one VAE per part, and compare single-model vs. ensemble accuracy.
//
//   ./census_ensemble [--rows 12000] [--epochs 10] [--k 3] [--queries 40]

#include <cstdio>

#include "aqp/evaluation.h"
#include "aqp/metrics.h"
#include "data/generators.h"
#include "data/workload.h"
#include "ensemble/ensemble_model.h"
#include "ensemble/partitioning.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "vae/vae_model.h"

using namespace deepaqp;  // NOLINT: example brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  util::ApplyThreadsFlag(flags);
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 12000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 10));
  const int k = static_cast<int>(flags.GetInt("k", 3));
  const auto num_queries = static_cast<size_t>(flags.GetInt("queries", 40));
  flags.RejectUnread();

  relation::Table table = data::GenerateCensus({.rows = rows, .seed = 5});
  const auto attr =
      static_cast<size_t>(table.schema().IndexOf("marital_status"));
  auto groups = ensemble::GroupByAttribute(table, attr, 0.05);
  std::printf("Partitioning by marital_status: %zu atomic groups\n",
              groups.size());

  vae::VaeAqpOptions vae_options;
  vae_options.epochs = epochs;
  vae_options.hidden_dim = 48;

  // Score function: train a small probe VAE on the candidate part and
  // report its R-ELBO loss (lower = better fit). Scores are memoized by the
  // partitioning algorithms.
  vae::VaeAqpOptions probe = vae_options;
  probe.epochs = std::max(3, epochs / 2);
  auto score = [&](const std::vector<int>& part) {
    std::vector<size_t> part_rows;
    for (int g : part) {
      part_rows.insert(part_rows.end(), groups[g].rows.begin(),
                       groups[g].rows.end());
    }
    relation::Table part_table = table.Gather(part_rows);
    auto model = vae::VaeAqpModel::Train(part_table, probe);
    if (!model.ok()) return 1e9;
    util::Rng rng(123);
    return (*model)->RElboLoss(part_table, 0.0, rng, 512);
  };

  auto hierarchy =
      ensemble::MakeBalancedHierarchy(static_cast<int>(groups.size()));
  std::printf("Scoring hierarchy nodes and solving the K=%d tree-cut...\n",
              k);
  auto dp = ensemble::PartitionHierarchyDp(hierarchy, score, k);
  auto greedy = ensemble::PartitionHierarchyGreedy(hierarchy, score, k);
  if (!dp.ok() || !greedy.ok()) {
    std::fprintf(stderr, "partitioning failed\n");
    return 1;
  }
  std::printf("  DP cut:     %zu parts, total R-ELBO %.3f\n",
              dp->parts.size(), dp->total_score);
  std::printf("  greedy cut: %zu parts, total R-ELBO %.3f\n\n",
              greedy->parts.size(), greedy->total_score);

  // Train the competitors: one big VAE vs. the DP-partitioned ensemble at
  // matched cumulative capacity.
  data::WorkloadConfig wcfg;
  wcfg.num_queries = num_queries;
  auto workload = data::GenerateWorkload(table, wcfg);
  aqp::EvalOptions eopts;
  eopts.num_trials = 3;

  vae::VaeAqpOptions single_options = vae_options;
  single_options.hidden_dim =
      vae_options.hidden_dim * static_cast<size_t>(dp->parts.size());
  std::printf("Training single VAE (hidden %zu)...\n",
              single_options.hidden_dim);
  auto single = vae::VaeAqpModel::Train(table, single_options);
  if (!single.ok()) return 1;
  auto red_single = aqp::RelativeErrorDifferences(
      workload, table, (*single)->MakeSampler((*single)->default_t()),
      eopts);

  std::printf("Training %zu-member ensemble (hidden %zu each)...\n",
              dp->parts.size(), vae_options.hidden_dim);
  auto ens = ensemble::EnsembleModel::Train(table, groups, *dp, vae_options);
  if (!ens.ok()) return 1;
  auto red_ens = aqp::RelativeErrorDifferences(
      workload, table, (*ens)->MakeSampler(vae::kTPlusInf), eopts);

  if (red_single.ok() && red_ens.ok()) {
    const auto s1 = aqp::DistributionSummary::FromValues(*red_single);
    const auto s2 = aqp::DistributionSummary::FromValues(*red_ens);
    std::printf("\nRelative error difference over %zu queries:\n",
                workload.size());
    std::printf("  single VAE:  median %.4f  p75 %.4f  (%.0f KB)\n",
                s1.median, s1.p75, (*single)->ModelSizeBytes() / 1024.0);
    std::printf("  ensemble:    median %.4f  p75 %.4f  (%.0f KB)\n",
                s2.median, s2.p75, (*ens)->ModelSizeBytes() / 1024.0);
  }
  return 0;
}
