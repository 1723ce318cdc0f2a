// Fig. 12: model-building time vs dataset size, per rejection regime. The
// paper sweeps 100K-1B rows on a K80 GPU; this single-core reproduction
// sweeps three decades (default 2K-200K) and checks the same two claims:
// (a) training time grows sublinearly in rows thanks to batching, and
// (b) stricter VRS thresholds (more resampling rounds / lower acceptance)
// cost more training time than plain ELBO training.
//
//   ./bench_fig12_training_time [--epochs 6] [--max_rows 200000] [--json]
//
// --json additionally writes BENCH_fig12.json with one uniform record per
// (rows, regime) point: ns_per_op is total training nanoseconds.

#include "bench_common.h"

#include "util/timer.h"

using namespace deepaqp;  // NOLINT: bench brevity

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const int epochs = static_cast<int>(flags.GetInt("epochs", 6));
  const auto max_rows = static_cast<size_t>(
      flags.GetInt("max_rows", 200000));
  bench::BenchReporter reporter(flags, "fig12", /*print_rows=*/false);
  bench::Init(flags);

  struct Regime {
    const char* name;
    bool vrs;
    double accept_target;  // lower target => stricter per-tuple T(x)
    int rounds;
  };
  const Regime regimes[] = {
      {"no-VRS (T=+inf)", false, 0.9, 0},
      {"VRS accept=0.9 (T=t0)", true, 0.9, 3},
      {"VRS accept=0.5 (T<t0)", true, 0.5, 5},
  };

  const std::string dataset = "census";
  for (size_t rows = 2000; rows <= max_rows; rows *= 10) {
    relation::Table table = bench::MakeDataset(dataset, rows);
    for (const Regime& regime : regimes) {
      vae::VaeAqpOptions options = bench::DefaultVaeOptions(epochs);
      options.vrs_training = regime.vrs;
      options.train_accept_target = regime.accept_target;
      options.vrs_rounds = regime.rounds;
      vae::TrainingStats stats;
      util::Stopwatch watch;
      auto model = vae::VaeAqpModel::Train(table, options, &stats);
      if (!model.ok()) return 1;
      char series[64];
      std::snprintf(series, sizeof(series), "rows=%zu %s", rows,
                    regime.name);
      const double seconds = watch.ElapsedSeconds();
      bench::PrintValueRow("Fig12", dataset, series, "train_seconds",
                           seconds);
      reporter.Add({"training_time", series, seconds * 1e9, 0.0, 0});
    }
  }
  reporter.Finish();
  return 0;
}
