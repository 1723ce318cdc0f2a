// Model-bias diagnostics (paper Sec. IV-B to IV-D): train a VAE, run the
// cross-match hypothesis test in latent space, drive the Algorithm-1 loop
// that lowers the rejection threshold T until the test passes, sweep T to
// show the accuracy/cost trade-off, and round-trip the model through disk.
//
//   ./model_diagnostics [--rows 8000] [--epochs 15]

#include <cmath>
#include <cstdio>

#include "aqp/evaluation.h"
#include "aqp/metrics.h"
#include "data/generators.h"
#include "data/workload.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "util/serialize.h"
#include "util/timer.h"
#include "vae/vae_model.h"
#include "vae/workflow.h"

using namespace deepaqp;  // NOLINT: example brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  util::ApplyThreadsFlag(flags);
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 8000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 15));
  flags.RejectUnread();

  relation::Table table = data::GenerateCensus({.rows = rows, .seed = 9});
  vae::VaeAqpOptions options;
  options.epochs = epochs;
  std::printf("Training VAE on %zu census tuples...\n", rows);
  auto model = vae::VaeAqpModel::Train(table, options);
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  std::printf("Calibrated default T = %.3f\n\n", (*model)->default_t());

  // Algorithm 1: cross-match test; lower T until the model sample is
  // indistinguishable from a real sample in latent space.
  vae::BiasEliminationOptions bias_options;
  bias_options.test_points = 96;
  bias_options.max_iterations = 5;
  auto loop = vae::EliminateModelBias(**model, table, bias_options);
  if (!loop.ok()) {
    std::fprintf(stderr, "bias loop failed: %s\n",
                 loop.status().ToString().c_str());
    return 1;
  }
  std::printf("Algorithm 1 (cross-match driven T selection):\n");
  double t_iter = bias_options.initial_t;
  for (const auto& test : loop->tests) {
    std::printf(
        "  T=%6.1f  a_DM=%3d (E[a_DM]=%5.1f)  p=%.4f  -> %s\n", t_iter,
        test.a_dm, test.expected_a_dm, test.p_value,
        test.Reject(bias_options.alpha) ? "reject, lower T" : "pass");
    t_iter -= bias_options.t_step;
  }
  std::printf("  final T = %.1f (%s after %d iteration(s))\n\n",
              loop->final_t, loop->passed ? "passed" : "budget exhausted",
              loop->iterations);

  // T sweep: sample quality vs. generation cost (Figs. 8 and 13 in-vitro).
  data::WorkloadConfig wcfg;
  wcfg.num_queries = 25;
  auto workload = data::GenerateWorkload(table, wcfg);
  aqp::EvalOptions eopts;
  eopts.num_trials = 3;
  // The sweep is centered on the calibrated threshold: the log-ratio scale
  // is dataset-specific, so "T = 0" in the paper corresponds to the
  // calibrated operating point here, with +-10 moving toward accept-all /
  // reject-most.
  const double t0 = (*model)->default_t();
  std::printf("%10s %14s %16s\n", "T offset", "median RED",
              "sampling ms/1k");
  for (double delta : {vae::kTMinusInf, -10.0, 0.0, 10.0, vae::kTPlusInf}) {
    const double t = std::isfinite(delta) ? t0 + delta : delta;
    util::Stopwatch watch;
    util::Rng rng(33);
    (*model)->Generate(1000, t, rng);
    const double ms = watch.ElapsedMillis();
    auto red = aqp::RelativeErrorDifferences(
        workload, table, (*model)->MakeSampler(t), eopts);
    const double median =
        red.ok() ? aqp::DistributionSummary::FromValues(*red).median : -1;
    std::printf("%10.1f %14.4f %16.1f\n", delta, median, ms);
  }

  // Persistence round trip: the shipped artifact.
  const std::string path = "/tmp/deepaqp_model.bin";
  auto bytes = (*model)->Serialize();
  if (!util::WriteFile(path, bytes).ok()) return 1;
  auto loaded_bytes = util::ReadFile(path);
  auto reloaded = vae::VaeAqpModel::Deserialize(*loaded_bytes);
  std::printf("\nModel persisted to %s (%.1f KB) and reloaded: %s\n",
              path.c_str(), bytes.size() / 1024.0,
              reloaded.ok() ? "OK" : "FAILED");
  return reloaded.ok() ? 0 : 1;
}
