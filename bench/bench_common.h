#ifndef DEEPAQP_BENCH_BENCH_COMMON_H_
#define DEEPAQP_BENCH_BENCH_COMMON_H_

// Shared scaffolding for the per-figure experiment binaries. Every bench
// prints self-describing aligned text tables ("figure, dataset, series, x,
// value") so EXPERIMENTS.md can record paper-vs-measured shapes. All sizes
// are flag-overridable; defaults are scaled to a single CPU core.
//
// Benches that track performance additionally emit uniform machine-readable
// records (name, shape, ns/op, GFLOP/s, threads) through BenchReporter:
// pass --json and the reporter writes BENCH_<bench>.json next to the
// binary's working directory, one JSON object per run. CI archives these
// so the perf trajectory of the kernel layer is tracked per commit.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "aqp/evaluation.h"
#include "aqp/metrics.h"
#include "data/generators.h"
#include "data/workload.h"
#include "relation/table.h"
#include "util/flags.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/topology.h"
#include "vae/vae_model.h"

namespace deepaqp::bench {

/// The bench prologue, called once a main has read all of its own flags:
/// applies --pin (first, so the rebuilt pool plans placement under it),
/// then --threads, then rejects every flag nothing read. Exits 2 on a bad
/// --pin value or an unknown argument.
inline void Init(const util::Flags& flags) {
  if (const util::Status st = util::ApplyPinFlag(flags); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    std::exit(2);
  }
  util::ApplyThreadsFlag(flags);
  flags.RejectUnread();
}

/// The two evaluation datasets of Sec. VI-A, synthesized at `rows`.
inline relation::Table MakeDataset(const std::string& name, size_t rows,
                                   uint64_t seed = 1) {
  if (name == "census") {
    return data::GenerateCensus({.rows = rows, .seed = seed});
  }
  if (name == "flights") {
    data::FlightsConfig config;
    config.rows = rows;
    config.seed = seed;
    // Large-cardinality attribute scaled with the dataset so one-hot
    // encoding stays pathological but trainable.
    config.flight_number_cardinality =
        static_cast<int32_t>(std::min<size_t>(2000, rows / 10 + 64));
    return data::GenerateFlights(config);
  }
  if (name == "taxi") {
    return data::GenerateTaxi({.rows = rows, .seed = seed});
  }
  std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
  std::exit(1);
}

inline std::vector<aqp::AggregateQuery> MakeWorkload(
    const relation::Table& table, size_t queries, uint64_t seed = 7) {
  data::WorkloadConfig config;
  config.num_queries = queries;
  config.seed = seed;
  return data::GenerateWorkload(table, config);
}

/// Default model options used across figures unless the figure sweeps the
/// knob itself.
inline vae::VaeAqpOptions DefaultVaeOptions(int epochs) {
  vae::VaeAqpOptions options;
  options.epochs = epochs;
  options.hidden_dim = 64;
  options.depth = 2;
  options.encoder.numeric_bins = 24;
  options.seed = 97;
  return options;
}

/// Prints one result row of a figure's series.
inline void PrintRedRow(const char* figure, const std::string& dataset,
                        const std::string& series,
                        const aqp::DistributionSummary& summary) {
  std::printf("%-8s %-8s %-22s median=%7.4f p25=%7.4f p75=%7.4f p95=%8.4f mean=%7.4f\n",
              figure, dataset.c_str(), series.c_str(), summary.median,
              summary.p25, summary.p75, summary.p95, summary.mean);
  std::fflush(stdout);
}

inline void PrintValueRow(const char* figure, const std::string& dataset,
                          const std::string& series, const char* metric,
                          double value) {
  std::printf("%-8s %-8s %-22s %s=%.4f\n", figure, dataset.c_str(),
              series.c_str(), metric, value);
  std::fflush(stdout);
}

/// One uniform perf record. `gflops` is 0 when a flop count is not
/// meaningful for the operation (e.g. end-to-end seconds).
/// `samples_per_sec` is the throughput counterpart for generation benches
/// (tuples produced per second); it stays 0 for kernel-level records and is
/// only then emitted into the JSON row, so existing record schemas are
/// unchanged.
struct BenchRecord {
  std::string name;
  std::string shape;
  double ns_per_op = 0.0;
  double gflops = 0.0;
  int threads = 1;
  double samples_per_sec = 0.0;
};

/// Collects BenchRecords and, when the binary was invoked with --json,
/// writes them to BENCH_<bench>.json on Finish(). Text output per record is
/// optional so figure benches can keep their own table format.
class BenchReporter {
 public:
  BenchReporter(const util::Flags& flags, std::string bench_name,
                bool print_rows = true)
      : bench_name_(std::move(bench_name)),
        json_(flags.GetBool("json", false)),
        print_rows_(print_rows) {}

  void Add(BenchRecord record) {
    record.threads = record.threads > 0 ? record.threads
                                        : util::GlobalThreads();
    if (print_rows_) {
      std::printf("%-32s %-26s ns/op=%14.1f gflops=%8.3f threads=%d\n",
                  record.name.c_str(), record.shape.c_str(),
                  record.ns_per_op, record.gflops, record.threads);
      std::fflush(stdout);
    }
    records_.push_back(std::move(record));
  }

  /// Writes BENCH_<bench>.json if --json was given; returns the path ("" if
  /// JSON output is disabled or the file could not be written).
  std::string Finish() const {
    if (!json_) return "";
    const std::string path = "BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return "";
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"records\": [\n",
                 bench_name_.c_str());
    for (size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"shape\": \"%s\", "
                   "\"ns_per_op\": %.3f, \"gflops\": %.4f, \"threads\": %d",
                   r.name.c_str(), r.shape.c_str(), r.ns_per_op, r.gflops,
                   r.threads);
      if (r.samples_per_sec > 0.0) {
        std::fprintf(f, ", \"samples_per_sec\": %.1f", r.samples_per_sec);
      }
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s (%zu records)\n", path.c_str(), records_.size());
    return path;
  }

  const std::vector<BenchRecord>& records() const { return records_; }

 private:
  std::string bench_name_;
  bool json_;
  bool print_rows_;
  std::vector<BenchRecord> records_;
};

/// Times `fn` and returns ns per invocation: one untimed warmup call, then
/// batches of timed iterations until `min_seconds` of measured work (at
/// least `min_iters` calls).
template <typename Fn>
double MeasureNsPerOp(Fn&& fn, double min_seconds = 0.2,
                      size_t min_iters = 3) {
  fn();  // warmup (first-touch, pool spin-up, scratch growth)
  size_t iters = 0;
  util::Stopwatch watch;
  do {
    fn();
    ++iters;
  } while (iters < min_iters || watch.ElapsedSeconds() < min_seconds);
  return watch.ElapsedSeconds() * 1e9 / static_cast<double>(iters);
}

}  // namespace deepaqp::bench

#endif  // DEEPAQP_BENCH_BENCH_COMMON_H_
