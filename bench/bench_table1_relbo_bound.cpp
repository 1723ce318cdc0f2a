// Table I: empirical validation of the R-ELBO bound. For random subsets of
// atomic groups, check that the R-ELBO loss of a VAE trained on the UNION is
// bounded by the SUM of the member groups' R-ELBO losses, for T in
// {t0-10, t0, t0+10} around the calibrated scale. The paper reports the
// fraction of subsets where the bound holds (0.96-1.0) over 1000 subsets;
// defaults here use fewer subsets to fit one core — raise --subsets to match.
//
//   ./bench_table1_relbo_bound [--rows 8000] [--epochs 6] [--subsets 20]

#include "bench_common.h"

#include "ensemble/partitioning.h"
#include "util/rng.h"

using namespace deepaqp;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 8000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 6));
  const int subsets = static_cast<int>(flags.GetInt("subsets", 20));
  bench::Init(flags);
  const std::vector<double> deltas = {-10.0, 0.0, 10.0};

  std::printf("Table I: fraction of random group-subsets where "
              "R-ELBO(union) <= sum of member R-ELBOs\n");

  for (const std::string dataset : {"census", "flights"}) {
    relation::Table table = bench::MakeDataset(dataset, rows);
    const auto attr = static_cast<size_t>(
        dataset == "census" ? table.schema().IndexOf("marital_status")
                            : table.schema().IndexOf("carrier"));
    auto groups = ensemble::GroupByAttribute(table, attr, 0.05);
    if (groups.size() < 3) {
      std::printf("%s: fewer than 3 atomic groups, skipping\n",
                  dataset.c_str());
      continue;
    }

    // Train one VAE per atomic group once; score it at every T.
    vae::VaeAqpOptions options = bench::DefaultVaeOptions(epochs);
    std::vector<relation::Table> member_tables;
    std::vector<std::vector<double>> member_score;  // [group][delta]
    double t0 = 0.0;
    {
      std::vector<std::unique_ptr<vae::VaeAqpModel>> member_models;
      for (size_t g = 0; g < groups.size(); ++g) {
        vae::VaeAqpOptions opt = options;
        opt.seed = options.seed + g;
        relation::Table part = table.Gather(groups[g].rows);
        auto m = vae::VaeAqpModel::Train(part, opt);
        if (!m.ok()) continue;
        t0 += (*m)->default_t();
        member_tables.push_back(std::move(part));
        member_models.push_back(std::move(m).value());
      }
      t0 /= static_cast<double>(member_models.size());
      member_score.resize(member_models.size());
      for (size_t g = 0; g < member_models.size(); ++g) {
        for (double delta : deltas) {
          util::Rng r(101 + g);
          member_score[g].push_back(member_models[g]->RElboLoss(
              member_tables[g], t0 + delta, r, 1024));
        }
      }
    }

    util::Rng rng(13);
    std::vector<int> holds(deltas.size(), 0);
    int total = 0;
    for (int s = 0; s < subsets; ++s) {
      const size_t size =
          2 + rng.NextIndex(std::min<size_t>(3, member_tables.size() - 1));
      auto pick = rng.SampleWithoutReplacement(member_tables.size(), size);
      relation::Table union_table = member_tables[pick[0]];
      std::vector<double> bound = member_score[pick[0]];
      for (size_t i = 1; i < pick.size(); ++i) {
        (void)union_table.Append(member_tables[pick[i]]);
        for (size_t d = 0; d < deltas.size(); ++d) {
          bound[d] += member_score[pick[i]][d];
        }
      }
      vae::VaeAqpOptions opt = options;
      opt.seed = options.seed + 7777 + s;
      auto union_model = vae::VaeAqpModel::Train(union_table, opt);
      if (!union_model.ok()) continue;
      for (size_t d = 0; d < deltas.size(); ++d) {
        util::Rng r(300 + s);
        const double union_score =
            (*union_model)->RElboLoss(union_table, t0 + deltas[d], r, 1024);
        holds[d] += union_score <= bound[d];
      }
      ++total;
    }
    for (size_t d = 0; d < deltas.size(); ++d) {
      char series[64];
      std::snprintf(series, sizeof(series), "T=t0%+.0f", deltas[d]);
      bench::PrintValueRow(
          "Table1", dataset, series, "bound_holds",
          total == 0 ? 0.0 : static_cast<double>(holds[d]) / total);
    }
  }
  return 0;
}
