// Quantization accuracy harness: verifies that switching the decoder to
// fp16 or int8 inference adds at most a budgeted amount of relative error
// to the paper's COUNT/SUM/AVG workloads (fig2-style census, fig3-style
// flights), per aggregate function, against the same model running fp32.
// CI runs this as a gate; a breach exits nonzero.
//
//   quant_accuracy_check [--datasets census,flights] [--rows 4000]
//                        [--epochs 3] [--queries 24] [--budget 0.01]
//                        [--modes fp16,int8] [--threads N]
//
// The budget bounds the *added* median relative error per aggregate op
// (default 0.01 = one percentage point). Changing the decoder arithmetic
// re-rolls the rejection-sampling trajectory, so even a perfectly accurate
// quantizer shifts the measured error by the eval's own sampling noise; the
// harness calibrates that floor by re-running the fp32 baseline under a
// second evaluation seed and charges each quantized delta only for the
// excess above the per-op fp32-vs-fp32 spread. A breach therefore means
// "worse than fp32 by more than budget + noise", not "unlucky draw".

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "aqp/evaluation.h"
#include "aqp/query.h"
#include "data/generators.h"
#include "data/workload.h"
#include "nn/kernels_quant.h"
#include "relation/table.h"
#include "util/flags.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/topology.h"
#include "vae/vae_model.h"

using namespace deepaqp;  // NOLINT: tool brevity

namespace {

relation::Table MakeDataset(const std::string& name, size_t rows) {
  if (name == "census") {
    return data::GenerateCensus({.rows = rows, .seed = 1});
  }
  if (name == "flights") {
    data::FlightsConfig config;
    config.rows = rows;
    config.seed = 1;
    config.flight_number_cardinality =
        static_cast<int32_t>(std::min<size_t>(2000, rows / 10 + 64));
    return data::GenerateFlights(config);
  }
  std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
  std::exit(2);
}

const char* AggName(aqp::AggFunc agg) {
  switch (agg) {
    case aqp::AggFunc::kCount: return "COUNT";
    case aqp::AggFunc::kSum: return "SUM";
    case aqp::AggFunc::kAvg: return "AVG";
    case aqp::AggFunc::kQuantile: return "QUANTILE";
  }
  return "?";
}

/// Median per-aggregate-op relative error of the model sampler on the
/// workload (non-finite per-query entries — skipped queries — are
/// dropped). The median is the paper's own summary statistic and keeps the
/// gate meaningful: a single outlier query with a near-zero exact answer
/// would otherwise dominate a mean and drown the quantization signal in
/// sampling noise.
util::Result<std::map<aqp::AggFunc, double>> PerOpErrors(
    const std::vector<aqp::AggregateQuery>& workload,
    const relation::Table& table, const vae::VaeAqpModel& model,
    const aqp::EvalOptions& options) {
  const aqp::SampleFn sampler = model.MakeSampler(model.default_t());
  DEEPAQP_ASSIGN_OR_RETURN(
      const std::vector<double> errors,
      aqp::WorkloadRelativeErrors(workload, table, sampler, options));
  std::map<aqp::AggFunc, std::vector<double>> per_op;
  for (size_t i = 0; i < workload.size() && i < errors.size(); ++i) {
    if (!std::isfinite(errors[i])) continue;
    per_op[workload[i].agg].push_back(errors[i]);
  }
  std::map<aqp::AggFunc, double> median;
  for (auto& [agg, v] : per_op) {
    std::sort(v.begin(), v.end());
    median[agg] = v.size() % 2 == 1
                      ? v[v.size() / 2]
                      : 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
  }
  return median;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  if (const util::Status st = util::ApplyPinFlag(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  util::ApplyThreadsFlag(flags);
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 4000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 3));
  const auto queries = static_cast<size_t>(flags.GetInt("queries", 24));
  const double budget = flags.GetDouble("budget", 0.01);
  const std::vector<std::string> datasets =
      util::Split(flags.GetString("datasets", "census,flights"), ',');
  const std::vector<std::string> mode_names =
      util::Split(flags.GetString("modes", "fp16,int8"), ',');
  flags.RejectUnread();

  std::vector<nn::QuantMode> modes;
  for (const std::string& name : mode_names) {
    nn::QuantMode mode;
    if (const util::Status st = nn::ParseQuantMode(name, &mode); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    if (mode != nn::QuantMode::kOff) modes.push_back(mode);
  }

  bool breached = false;
  for (const std::string& dataset : datasets) {
    const relation::Table table = MakeDataset(dataset, rows);
    data::WorkloadConfig wconfig;
    wconfig.num_queries = queries;
    wconfig.seed = 7;
    const std::vector<aqp::AggregateQuery> workload =
        data::GenerateWorkload(table, wconfig);

    vae::VaeAqpOptions vopts;
    vopts.epochs = epochs;
    vopts.hidden_dim = 64;
    vopts.encoder.numeric_bins = 24;
    vopts.seed = 97;
    if (const util::Status st = nn::SetQuantMode(nn::QuantMode::kOff);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    auto model = vae::VaeAqpModel::Train(table, vopts);
    if (!model.ok()) {
      std::fprintf(stderr, "train(%s) failed: %s\n", dataset.c_str(),
                   model.status().ToString().c_str());
      return 1;
    }

    aqp::EvalOptions eopts;
    // A larger sample and more trials than the paper default keep the
    // sampling-noise floor well below the 1% budget the gate enforces.
    eopts.sample_fraction = 0.1;
    eopts.num_trials = 6;
    eopts.seed = 42;
    auto baseline = PerOpErrors(workload, table, **model, eopts);
    if (!baseline.ok()) {
      std::fprintf(stderr, "baseline eval failed: %s\n",
                   baseline.status().ToString().c_str());
      return 1;
    }
    // Same model, same workload, different eval seed: the per-op spread
    // between the two fp32 runs is the sampling-noise floor that any
    // arithmetic change (including an exact one) would also induce.
    aqp::EvalOptions nopts = eopts;
    nopts.seed = eopts.seed + 1;
    auto reroll = PerOpErrors(workload, table, **model, nopts);
    if (!reroll.ok()) {
      std::fprintf(stderr, "noise-floor eval failed: %s\n",
                   reroll.status().ToString().c_str());
      return 1;
    }
    std::map<aqp::AggFunc, double> noise;
    for (const auto& [agg, err] : *baseline) {
      noise[agg] =
          (*reroll).count(agg) ? std::fabs((*reroll).at(agg) - err) : 0.0;
      std::printf("%-8s %-5s fp32  median_rel_err=%.4f noise=%.4f\n",
                  dataset.c_str(), AggName(agg), err, noise[agg]);
    }

    for (nn::QuantMode mode : modes) {
      if (const util::Status st = nn::SetQuantMode(mode); !st.ok()) {
        std::fprintf(stderr, "cannot engage quant=%s: %s\n",
                     nn::QuantModeName(mode), st.ToString().c_str());
        return 1;
      }
      if (const util::Status st = (*model)->PrepareQuantized(mode);
          !st.ok()) {
        std::fprintf(stderr, "prepare quant=%s failed: %s\n",
                     nn::QuantModeName(mode), st.ToString().c_str());
        return 1;
      }
      auto quant = PerOpErrors(workload, table, **model, eopts);
      if (!quant.ok()) {
        std::fprintf(stderr, "quant eval failed: %s\n",
                     quant.status().ToString().c_str());
        return 1;
      }
      for (const auto& [agg, err] : *quant) {
        const double base = (*baseline).count(agg) ? (*baseline).at(agg)
                                                   : 0.0;
        const double delta = err - base;
        const bool over = delta > budget + noise[agg];
        std::printf(
            "%-8s %-5s %-5s median_rel_err=%.4f delta=%+.4f (allow %.4f) %s\n",
            dataset.c_str(), AggName(agg), nn::QuantModeName(mode), err, delta,
            budget + noise[agg], over ? "BREACH" : "ok");
        if (over) breached = true;
      }
    }
    (void)nn::SetQuantMode(nn::QuantMode::kOff);
  }

  if (breached) {
    std::fprintf(stderr,
                 "FAIL: quantized inference exceeds the accuracy budget "
                 "(%.3f added median relative error)\n",
                 budget);
    return 1;
  }
  std::printf("quant accuracy within budget (%.3f)\n", budget);
  return 0;
}
