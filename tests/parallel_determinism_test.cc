// Locks in the PR's core guarantee: every parallel region (training GEMMs,
// chunked sample generation, pairwise distances, per-partition ensemble
// training) produces bit-identical results at 1, 2, and 8 threads from the
// same seed. Each helper below reruns a pipeline from scratch under
// util::SetGlobalThreads(t) and the test compares the artifacts exactly —
// no tolerances anywhere.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "ensemble/ensemble_model.h"
#include "ensemble/partitioning.h"
#include "relation/table.h"
#include "stats/cross_match.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "util/topology.h"
#include "vae/vae_model.h"

namespace deepaqp {
namespace {

const int kThreadCounts[] = {1, 2, 8};

relation::Table TrainingTable() {
  return data::GenerateCensus({.rows = 300, .seed = 11});
}

vae::VaeAqpOptions SmallVaeOptions() {
  vae::VaeAqpOptions options;
  options.epochs = 3;
  options.batch_size = 96;  // > one gradient shard, so reduction order matters
  options.hidden_dim = 24;
  options.latent_dim = 6;
  options.encoder.numeric_bins = 8;
  options.seed = 4242;
  return options;
}

void ExpectTablesIdentical(const relation::Table& a,
                           const relation::Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t c = 0; c < a.num_attributes(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      if (a.schema().IsCategorical(c)) {
        ASSERT_EQ(a.CatCode(r, c), b.CatCode(r, c))
            << "row " << r << " col " << c;
      } else {
        // Bitwise equality: EXPECT_EQ on doubles, not EXPECT_NEAR.
        ASSERT_EQ(a.NumValue(r, c), b.NumValue(r, c))
            << "row " << r << " col " << c;
      }
    }
  }
}

TEST(ParallelDeterminismTest, TrainingLossTrajectoryAndWeights) {
  const relation::Table table = TrainingTable();
  std::vector<vae::TrainingStats> stats(3);
  std::vector<std::vector<uint8_t>> bytes(3);
  for (int i = 0; i < 3; ++i) {
    util::SetGlobalThreads(kThreadCounts[i]);
    auto model = vae::VaeAqpModel::Train(table, SmallVaeOptions(), &stats[i]);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    bytes[i] = (*model)->Serialize();
  }
  util::SetGlobalThreads(0);
  for (int i = 1; i < 3; ++i) {
    ASSERT_EQ(stats[0].epochs.size(), stats[i].epochs.size());
    for (size_t e = 0; e < stats[0].epochs.size(); ++e) {
      // Exact double equality: the loss trajectory is the golden artifact.
      EXPECT_EQ(stats[0].epochs[e].recon_loss, stats[i].epochs[e].recon_loss)
          << "epoch " << e << " at " << kThreadCounts[i] << " threads";
      EXPECT_EQ(stats[0].epochs[e].kl, stats[i].epochs[e].kl)
          << "epoch " << e << " at " << kThreadCounts[i] << " threads";
      EXPECT_EQ(stats[0].epochs[e].acceptance, stats[i].epochs[e].acceptance)
          << "epoch " << e << " at " << kThreadCounts[i] << " threads";
    }
    // Serialized weights capture every parameter bit.
    EXPECT_EQ(bytes[0], bytes[i])
        << "weights diverged at " << kThreadCounts[i] << " threads";
  }
}

TEST(ParallelDeterminismTest, GeneratedSamplePool) {
  const relation::Table table = TrainingTable();
  util::SetGlobalThreads(1);
  auto trained = vae::VaeAqpModel::Train(table, SmallVaeOptions());
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  vae::VaeAqpModel& model = **trained;

  // 1500 rows spans several 512-row generation chunks, exercising both the
  // chunk fan-out and the in-chunk rejection loop.
  std::vector<relation::Table> pools;
  for (int t : kThreadCounts) {
    util::SetGlobalThreads(t);
    util::Rng rng(777);
    pools.push_back(model.Generate(1500, model.default_t(), rng));
  }
  util::SetGlobalThreads(0);
  ASSERT_EQ(pools[0].num_rows(), 1500u);
  ExpectTablesIdentical(pools[0], pools[1]);
  ExpectTablesIdentical(pools[0], pools[2]);
}

// Placement policies decide *where* a loop index runs, never what it
// computes: pinned to the process's real CPUs, compact must reproduce the
// pin=off pool bit-for-bit at every thread count — including pools wider
// than the machine, whose lanes wrap around the CPU list.
TEST(ParallelDeterminismTest, PinnedPoliciesMatchUnpinnedExactly) {
  const relation::Table table = TrainingTable();
  util::SetGlobalThreads(1);
  auto trained = vae::VaeAqpModel::Train(table, SmallVaeOptions());
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  vae::VaeAqpModel& model = **trained;

  const util::PinPolicy saved = util::ActivePinPolicy();
  const int pin_threads[] = {1, 4, 8};
  std::vector<relation::Table> pools;
  for (util::PinPolicy policy :
       {util::PinPolicy::kOff, util::PinPolicy::kCompact}) {
    for (int t : pin_threads) {
      util::SetPinPolicy(policy);
      util::SetGlobalThreads(t);  // rebuild the pool under (policy, t)
      util::Rng rng(777);
      pools.push_back(model.Generate(1500, model.default_t(), rng));
    }
  }

  util::SetPinPolicy(saved);
  util::SetGlobalThreads(0);

  ASSERT_EQ(pools[0].num_rows(), 1500u);
  for (size_t i = 1; i < pools.size(); ++i) {
    SCOPED_TRACE("policy/thread combination " + std::to_string(i));
    ExpectTablesIdentical(pools[0], pools[i]);
  }
}

TEST(ParallelDeterminismTest, CrossMatchPValue) {
  // Two Gaussian clouds with a planted mean shift; n = 120 points total
  // makes the O(n^2) distance build big enough to actually fan out.
  std::vector<stats::CrossMatchResult> results;
  for (int t : kThreadCounts) {
    util::SetGlobalThreads(t);
    util::Rng data_rng(31337);
    std::vector<std::vector<double>> d, m;
    for (int i = 0; i < 61; ++i) {
      d.push_back({data_rng.NextGaussian(), data_rng.NextGaussian()});
    }
    for (int i = 0; i < 59; ++i) {
      m.push_back({data_rng.NextGaussian() + 0.4, data_rng.NextGaussian()});
    }
    util::Rng test_rng(99);
    auto result = stats::CrossMatchTest(d, m, test_rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(*result);
  }
  util::SetGlobalThreads(0);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].p_value, results[i].p_value);
    EXPECT_EQ(results[0].a_dm, results[i].a_dm);
    EXPECT_EQ(results[0].a_dd, results[i].a_dd);
    EXPECT_EQ(results[0].a_mm, results[i].a_mm);
  }
}

TEST(ParallelDeterminismTest, EnsembleTraining) {
  const relation::Table table = TrainingTable();
  // Four atomic groups by row stripes, two parts of two groups each.
  std::vector<ensemble::AtomicGroup> groups(4);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    groups[r % 4].rows.push_back(r);
  }
  ensemble::Partition partition;
  partition.parts = {{0, 1}, {2, 3}};

  vae::VaeAqpOptions options = SmallVaeOptions();
  options.epochs = 2;
  std::vector<std::vector<uint8_t>> bytes;
  std::vector<relation::Table> pools;
  for (int t : kThreadCounts) {
    util::SetGlobalThreads(t);
    auto model = ensemble::EnsembleModel::Train(table, groups, partition,
                                                options);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    bytes.push_back((*model)->Serialize());
    util::Rng rng(555);
    pools.push_back((*model)->Generate(600, vae::kTPlusInf, rng));
  }
  util::SetGlobalThreads(0);
  for (size_t i = 1; i < bytes.size(); ++i) {
    EXPECT_EQ(bytes[0], bytes[i])
        << "ensemble weights diverged at " << kThreadCounts[i] << " threads";
    ExpectTablesIdentical(pools[0], pools[i]);
  }
}

}  // namespace
}  // namespace deepaqp
