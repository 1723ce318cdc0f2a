// Thread-scaling bench for the shared thread pool: reruns the three hot
// parallel paths (VAE training, synthetic-sample generation, cross-match
// distance construction) across thread counts and reports wall time plus
// speedup over the single-thread baseline. Because every parallel region is
// deterministic by construction, the work done is identical at every thread
// count — the speedup column isolates pure scheduling/scaling behavior.
// Target (multi-core hardware): >= 2.5x sampling throughput at 4 threads.
//
// Two placement sections ride on top of the classic sweep:
//  * pinned-vs-unpinned: the sampling phase re-runs at --max_threads under
//    each pin policy (off/compact/scatter) and cross-checks that the
//    generated tables are bit-identical — placement may only move work,
//    never change it. On a single-node machine the pinned rows should land
//    within noise of the unpinned row.
//  * local-vs-remote: on multi-node machines, a buffer is first-touched
//    from a node-0 CPU and then summed from node 0 (local) and node 1
//    (remote), isolating the NUMA penalty the sharded paths avoid. Skipped
//    with a note when the topology has one node.
//
// With --json the rows are also written to BENCH_threads.json (name =
// train/sample/crossmatch/placement, shape = "threads=N pin=P", sampling
// rows carry samples_per_sec) so CI can pool them with the other perf
// artifacts.
//
//   ./bench_threads_scaling [--rows 20000] [--epochs 4] [--samples 60000]
//                           [--points 600] [--max_threads 8]
//                           [--pin off|compact|scatter] [--json]

#include "bench_common.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <numeric>
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

// Local-vs-remote memory placement: first-touch a buffer from a node-0 CPU,
// then time sequential sum sweeps from node 0 (local) and node 1 (remote).
// The ratio is the raw NUMA penalty that node-sharded execution avoids.
void MeasurePlacement(bench::BenchReporter& reporter) {
  const util::CpuTopology& topo = util::Topology();
  if (!topo.multi_node()) {
    std::printf(
        "placement: single NUMA node — skipping local-vs-remote rows\n");
    return;
  }
  const std::vector<int> saved_cpus = util::AllowedCpus();
  const int local_cpu = topo.nodes[0].cpus.front();
  const int remote_cpu = topo.nodes[1].cpus.front();
  if (!util::PinCurrentThread(local_cpu)) {
    std::printf("placement: pinning unavailable — skipping rows\n");
    return;
  }

  constexpr size_t kDoubles = size_t{8} << 20;  // 64 MiB, beyond any LLC
  std::vector<double> buffer(kDoubles, 1.0);    // first touch on node 0

  double sink = 0.0;
  auto sweep_seconds = [&buffer, &sink]() {
    constexpr int kPasses = 8;
    util::Stopwatch watch;
    for (int p = 0; p < kPasses; ++p) {
      sink += std::accumulate(buffer.begin(), buffer.end(), 0.0);
    }
    return watch.ElapsedSeconds() / kPasses;
  };

  sweep_seconds();  // warm up TLBs/prefetchers before measuring local
  const double local_s = sweep_seconds();
  double remote_s = 0.0;
  if (util::PinCurrentThread(remote_cpu)) {
    sweep_seconds();
    remote_s = sweep_seconds();
  }
  if (!saved_cpus.empty()) util::PinCurrentThreadToCpus(saved_cpus);
  if (sink == 12345.0) std::printf("?");  // defeat dead-code elimination

  const double bytes = static_cast<double>(kDoubles) * sizeof(double);
  bench::PrintValueRow("Threads", "census", "placement local", "gib_per_sec",
                       bytes / local_s / (1 << 30));
  reporter.Add({.name = "placement",
                .shape = "node=local",
                .ns_per_op = local_s * 1e9,
                .threads = 1});
  if (remote_s > 0.0) {
    bench::PrintValueRow("Threads", "census", "placement remote",
                         "gib_per_sec", bytes / remote_s / (1 << 30));
    bench::PrintValueRow("Threads", "census", "placement remote/local",
                         "ratio", remote_s / local_s);
    reporter.Add({.name = "placement",
                  .shape = "node=remote",
                  .ns_per_op = remote_s * 1e9,
                  .threads = 1});
  }
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
  // (off unless asked); the pinned sweep below covers all three policies.
  const util::PinPolicy base_policy = util::ActivePinPolicy();
  std::printf("topology: %s\n", util::Topology().ToString().c_str());

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
  // invisible in the output (checksums identical) and, on one node, in the
  // timing too.
  uint64_t off_checksum = 0;
  bool checksums_match = true;
  for (util::PinPolicy policy :
       {util::PinPolicy::kOff, util::PinPolicy::kCompact,
        util::PinPolicy::kScatter}) {
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

  // Phase 4: raw local-vs-remote memory placement (multi-node only).
  MeasurePlacement(reporter);

  util::SetGlobalThreads(0);
  reporter.Finish();
  return checksums_match ? 0 : 1;
}
