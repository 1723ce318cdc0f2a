// Thread-scaling bench for the shared thread pool: reruns the three hot
// parallel paths (VAE training, synthetic-sample generation, cross-match
// distance construction) across thread counts and reports wall time plus
// speedup over the single-thread baseline. Because every parallel region is
// deterministic by construction, the work done is identical at every thread
// count — the speedup column isolates pure scheduling/scaling behavior.
// Target (multi-core hardware): >= 2.5x sampling throughput at 4 threads.
//
// A pinned-vs-unpinned section rides on top of the classic sweep: the
// sampling phase re-runs at --max_threads under each pin policy
// (off/compact) and cross-checks that the generated tables are
// bit-identical — placement may only move work, never change it.
//
// With --json the rows are also written to BENCH_threads.json (name =
// train/sample/crossmatch, shape = "threads=N pin=P", sampling rows carry
// samples_per_sec) so CI can pool them with the other perf artifacts.
//
//   ./bench_threads_scaling [--rows 20000] [--epochs 4] [--samples 60000]
//                           [--points 600] [--max_threads 8]
//                           [--pin off|compact] [--json]

#include "bench_common.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "stats/cross_match.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace deepaqp;  // NOLINT: bench brevity

namespace {

// Powers of two up to --max_threads, plus max_threads itself when it is not
// a power of two (so --max_threads 6 measures 1/2/4/6, not just 1/2/4).
std::vector<int> ThreadCounts(int max_threads) {
  std::vector<int> counts;
  for (int t = 1; t <= max_threads; t *= 2) counts.push_back(t);
  if (counts.empty() || counts.back() != max_threads) {
    counts.push_back(max_threads);
  }
  return counts;
}

void PrintScalingRow(const char* phase, int threads, double seconds,
                     double baseline_seconds) {
  char series[64];
  std::snprintf(series, sizeof(series), "%s threads=%d", phase, threads);
  bench::PrintValueRow("Threads", "census", series, "seconds", seconds);
  bench::PrintValueRow("Threads", "census", series, "speedup",
                       baseline_seconds / seconds);
}

std::string ShapeOf(int threads, util::PinPolicy policy) {
  char shape[64];
  std::snprintf(shape, sizeof(shape), "threads=%d pin=%s", threads,
                util::PinPolicyName(policy));
  return shape;
}

// FNV-1a over every cell of `table`, column-major. Placement policies must
// not change a single bit of the generated output, so every policy must
// hash identically.
uint64_t TableChecksum(const relation::Table& table) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (size_t c = 0; c < table.num_attributes(); ++c) {
    if (table.schema().IsCategorical(c)) {
      for (int32_t code : table.CatColumn(c)) {
        mix(static_cast<uint64_t>(static_cast<uint32_t>(code)));
      }
    } else {
      for (double v : table.NumColumn(c)) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
      }
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const auto rows = static_cast<size_t>(flags.GetInt("rows", 20000));
  const int epochs = static_cast<int>(flags.GetInt("epochs", 4));
  const auto samples = static_cast<size_t>(flags.GetInt("samples", 60000));
  const auto points = static_cast<size_t>(flags.GetInt("points", 600));
  const int max_threads = static_cast<int>(flags.GetInt("max_threads", 8));
  bench::BenchReporter reporter(flags, "threads", /*print_rows=*/false);
  bench::Init(flags);

  // The classic sweep runs under whatever --pin / DEEPAQP_PIN selected
  // (off unless asked); the pinned sweep below covers both policies.
  const util::PinPolicy base_policy = util::ActivePinPolicy();

  const relation::Table table = bench::MakeDataset("census", rows);
  const std::vector<int> thread_counts = ThreadCounts(max_threads);

  // Phase 1: training (row-parallel GEMMs + sharded gradient reduction).
  double train_base = 0.0;
  std::unique_ptr<vae::VaeAqpModel> model;
  for (int t : thread_counts) {
    util::SetGlobalThreads(t);
    util::Stopwatch watch;
    auto trained =
        vae::VaeAqpModel::Train(table, bench::DefaultVaeOptions(epochs));
    if (!trained.ok()) return 1;
    const double seconds = watch.ElapsedSeconds();
    if (t == 1) {
      train_base = seconds;
      model = std::move(*trained);  // reuse the 1-thread model below
    }
    PrintScalingRow("train", t, seconds, train_base);
    reporter.Add({.name = "train",
                  .shape = ShapeOf(t, base_policy),
                  .ns_per_op = seconds * 1e9,
                  .threads = t});
  }

  // Phase 2: sampling (chunked generation with child RNG streams). This is
  // the path the paper cares most about — client-side sample production.
  double sample_base = 0.0;
  for (int t : thread_counts) {
    util::SetGlobalThreads(t);
    util::Rng rng(4242);
    util::Stopwatch watch;
    relation::Table pool = model->Generate(samples, model->default_t(), rng);
    const double seconds = watch.ElapsedSeconds();
    if (t == 1) sample_base = seconds;
    PrintScalingRow("sample", t, seconds, sample_base);
    const double rate = static_cast<double>(pool.num_rows()) / seconds;
    bench::PrintValueRow("Threads", "census", "sample rate", "tuples_per_sec",
                         rate);
    reporter.Add({.name = "sample",
                  .shape = ShapeOf(t, base_policy),
                  .ns_per_op = seconds * 1e9,
                  .threads = t,
                  .samples_per_sec = rate});
  }

  // Phase 2b: pinned vs unpinned at max_threads. Placement must be
  // invisible in the output (checksums identical).
  uint64_t off_checksum = 0;
  bool checksums_match = true;
  for (util::PinPolicy policy :
       {util::PinPolicy::kOff, util::PinPolicy::kCompact}) {
    util::SetPinPolicy(policy);
    util::SetGlobalThreads(max_threads);  // rebuild pool under the policy
    util::Rng rng(4242);
    util::Stopwatch watch;
    relation::Table pool = model->Generate(samples, model->default_t(), rng);
    const double seconds = watch.ElapsedSeconds();
    const uint64_t checksum = TableChecksum(pool);
    if (policy == util::PinPolicy::kOff) {
      off_checksum = checksum;
    } else if (checksum != off_checksum) {
      checksums_match = false;
      std::printf("ERROR: pin=%s output differs from pin=off\n",
                  util::PinPolicyName(policy));
    }
    char series[64];
    std::snprintf(series, sizeof(series), "sample pin=%s",
                  util::PinPolicyName(policy));
    bench::PrintValueRow("Threads", "census", series, "seconds", seconds);
    const double rate = static_cast<double>(pool.num_rows()) / seconds;
    reporter.Add({.name = "sample",
                  .shape = ShapeOf(max_threads, policy),
                  .ns_per_op = seconds * 1e9,
                  .threads = max_threads,
                  .samples_per_sec = rate});
  }
  std::printf("pinned-vs-unpinned checksums: %s\n",
              checksums_match ? "identical" : "MISMATCH");
  util::SetPinPolicy(base_policy);
  util::SetGlobalThreads(max_threads);

  // Phase 3: cross-match distance construction (O(n^2) pairwise build).
  double cross_base = 0.0;
  for (int t : thread_counts) {
    util::SetGlobalThreads(t);
    util::Rng data_rng(1);
    std::vector<std::vector<double>> d, m;
    for (size_t i = 0; i < points; ++i) {
      d.push_back({data_rng.NextGaussian(), data_rng.NextGaussian()});
      m.push_back({data_rng.NextGaussian() + 0.1, data_rng.NextGaussian()});
    }
    util::Rng test_rng(2);
    util::Stopwatch watch;
    auto result = stats::CrossMatchTest(d, m, test_rng);
    if (!result.ok()) return 1;
    const double seconds = watch.ElapsedSeconds();
    if (t == 1) cross_base = seconds;
    PrintScalingRow("crossmatch", t, seconds, cross_base);
    reporter.Add({.name = "crossmatch",
                  .shape = ShapeOf(t, base_policy),
                  .ns_per_op = seconds * 1e9,
                  .threads = t});
  }

  util::SetGlobalThreads(0);
  reporter.Finish();
  return checksums_match ? 0 : 1;
}
