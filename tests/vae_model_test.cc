#include "vae/vae_model.h"

#include <cmath>

#include <gtest/gtest.h>

#include "aqp/evaluation.h"
#include "aqp/executor.h"
#include "aqp/metrics.h"
#include "data/generators.h"
#include "data/workload.h"
#include "util/snapshot.h"

namespace deepaqp::vae {
namespace {

VaeAqpOptions FastOptions() {
  VaeAqpOptions opts;
  opts.epochs = 8;
  opts.hidden_dim = 48;
  opts.batch_size = 128;
  opts.seed = 5;
  opts.encoder.numeric_bins = 16;
  return opts;
}

TEST(VaeModelTest, TrainRejectsDegenerateInputs) {
  relation::Schema s;
  ASSERT_TRUE(s.AddAttribute("x", relation::AttrType::kNumeric).ok());
  relation::Table empty(s);
  EXPECT_FALSE(VaeAqpModel::Train(empty, FastOptions()).ok());

  auto table = data::GenerateTaxi({.rows = 100, .seed = 1});
  VaeAqpOptions bad = FastOptions();
  bad.epochs = 0;
  EXPECT_FALSE(VaeAqpModel::Train(table, bad).ok());
}

TEST(VaeModelTest, SnapshotMetaHoldsOnlyTheDefaultThreshold) {
  // Payload version 2 dropped the decode options: 'meta' is default_t.
  auto table = data::GenerateTaxi({.rows = 100, .seed = 1});
  VaeAqpOptions opts = FastOptions();
  opts.epochs = 1;
  const auto model = VaeAqpModel::Train(table, opts);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const std::vector<uint8_t> bytes = (*model)->Serialize();
  auto snap = util::SnapshotReader::Open(bytes);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(snap->payload_version(), 2u);
  auto meta = snap->Section("meta");
  ASSERT_TRUE(meta.ok());
  const auto t = meta->ReadF64();
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(*t, (*model)->default_t());
  EXPECT_TRUE(meta->AtEnd());
}

TEST(VaeModelTest, GeneratesFromCodesWithoutLabels) {
  // A categorical column with 2 labels but codes 0-4 (AppendRow accepts
  // them): the model's domain is 5 values, only 2 of them labeled.
  relation::Schema s;
  ASSERT_TRUE(s.AddAttribute("tag", relation::AttrType::kCategorical).ok());
  ASSERT_TRUE(s.AddAttribute("x", relation::AttrType::kNumeric).ok());
  relation::Table table(s);
  table.InternLabel(0, "a");
  table.InternLabel(0, "b");
  for (int i = 0; i < 500; ++i) {
    table.AppendRow({relation::Datum::Categorical(i % 5),
                     relation::Datum::Numeric(i % 7)});
  }
  VaeAqpOptions opts = FastOptions();
  opts.epochs = 2;
  auto model = VaeAqpModel::Train(table, opts);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  util::Rng rng(8);
  // Two chunks, so the merge of chunks is covered too.
  const relation::Table sample = (*model)->Generate(700, kTPlusInf, rng);
  ASSERT_EQ(sample.num_rows(), 700u);
  EXPECT_EQ(sample.dict(0).size(), 2);
  EXPECT_EQ(sample.Cardinality(0), 5);
  bool unlabeled = false;
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    EXPECT_GE(sample.CatCode(r, 0), 0);
    EXPECT_LT(sample.CatCode(r, 0), 5);
    unlabeled |= sample.CatCode(r, 0) >= 2;
  }
  EXPECT_TRUE(unlabeled);
  // Growing a pool appends a second sample with the same labels.
  relation::Table pool = sample;
  ASSERT_TRUE(pool.Append((*model)->Generate(100, kTPlusInf, rng)).ok());
  EXPECT_EQ(pool.num_rows(), 800u);
}

TEST(VaeModelTest, GeneratedTableHasSchemaAndDomains) {
  auto table = data::GenerateTaxi({.rows = 3000, .seed = 2});
  auto model = VaeAqpModel::Train(table, FastOptions());
  ASSERT_TRUE(model.ok());
  util::Rng rng(3);
  auto sample = (*model)->Generate(500, kTPlusInf, rng);
  EXPECT_EQ(sample.num_rows(), 500u);
  EXPECT_TRUE(sample.schema() == table.schema());
  for (size_t r = 0; r < sample.num_rows(); ++r) {
    EXPECT_GE(sample.CatCode(r, 0), 0);
    EXPECT_LT(sample.CatCode(r, 0), 5);  // 5 boroughs
    EXPECT_GE(sample.NumValue(r, 4), 0.0);  // distances non-negative
  }
  // Declared cardinalities survive generation (group-by support).
  EXPECT_EQ(sample.Cardinality(2), 24);
}

TEST(VaeModelTest, LearnsMarginalDistribution) {
  auto table = data::GenerateTaxi({.rows = 6000, .seed = 4});
  VaeAqpOptions opts = FastOptions();
  opts.epochs = 15;
  auto model = VaeAqpModel::Train(table, opts);
  ASSERT_TRUE(model.ok());
  util::Rng rng(5);
  auto sample = (*model)->Generate(3000, (*model)->default_t(), rng);

  // Borough marginal should roughly match (Manhattan ~55%).
  auto frac = [](const relation::Table& t, int32_t code) {
    size_t hits = 0;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      hits += t.CatCode(r, 0) == code;
    }
    return static_cast<double>(hits) / t.num_rows();
  };
  EXPECT_NEAR(frac(sample, 0), frac(table, 0), 0.15);

  // Mean fare should land in the right ballpark.
  aqp::AggregateQuery q;
  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = table.schema().IndexOf("fare");
  const double truth = aqp::ExecuteExact(q, table)->Scalar();
  const double est = aqp::ExecuteExact(q, sample)->Scalar();
  EXPECT_LT(aqp::RelativeError(est, truth), 0.35);
}

TEST(VaeModelTest, RejectionThresholdControlsSamplingCost) {
  auto table = data::GenerateTaxi({.rows = 3000, .seed = 6});
  auto model = VaeAqpModel::Train(table, FastOptions());
  ASSERT_TRUE(model.ok());
  util::Rng r1(7), r2(7), r3(7);
  // All three thresholds produce the requested row count.
  EXPECT_EQ((*model)->Generate(200, kTPlusInf, r1).num_rows(), 200u);
  EXPECT_EQ((*model)->Generate(200, 0.0, r2).num_rows(), 200u);
  EXPECT_EQ((*model)->Generate(50, kTMinusInf, r3).num_rows(), 50u);
}

TEST(VaeModelTest, RElboLossDecreasesWithStricterT) {
  auto table = data::GenerateTaxi({.rows = 4000, .seed = 8});
  VaeAqpOptions opts = FastOptions();
  opts.epochs = 12;
  auto model = VaeAqpModel::Train(table, opts);
  ASSERT_TRUE(model.ok());
  // The threshold must sit on the model's calibrated log-ratio scale;
  // absolute small values reject every draw and degenerate to the plain
  // ELBO.
  const double strict_t = (*model)->default_t() - 5.0;
  double loose = 0.0, strict = 0.0;
  for (int i = 0; i < 5; ++i) {
    util::Rng ra(50 + i), rb(50 + i);
    loose += (*model)->RElboLoss(table, kTPlusInf, ra, 1024);
    strict += (*model)->RElboLoss(table, strict_t, rb, 1024);
  }
  // Resampling can only improve (lower) the bound, up to MC noise.
  EXPECT_LE(strict, loose + 0.2);
}

TEST(VaeModelTest, DefaultTIsFiniteAfterVrsTraining) {
  auto table = data::GenerateTaxi({.rows = 2000, .seed = 9});
  auto model = VaeAqpModel::Train(table, FastOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_TRUE(std::isfinite((*model)->default_t()));
}

TEST(VaeModelTest, TrainingStatsPopulated) {
  auto table = data::GenerateTaxi({.rows = 1000, .seed = 10});
  TrainingStats stats;
  auto model = VaeAqpModel::Train(table, FastOptions(), &stats);
  ASSERT_TRUE(model.ok());
  ASSERT_EQ(stats.epochs.size(), 8u);
  EXPECT_GT(stats.total_seconds, 0.0);
  // Loss should drop from first to last epoch.
  EXPECT_LT(stats.epochs.back().recon_loss + stats.epochs.back().kl,
            stats.epochs.front().recon_loss + stats.epochs.front().kl);
  // VRS kicks in after warmup; acceptance then reflects the 0.9 target.
  EXPECT_LE(stats.epochs.back().acceptance, 1.0);
}

TEST(VaeModelTest, SerializeRoundTripGeneratesSameDistribution) {
  auto table = data::GenerateTaxi({.rows = 2000, .seed = 11});
  auto model = VaeAqpModel::Train(table, FastOptions());
  ASSERT_TRUE(model.ok());
  auto bytes = (*model)->Serialize();
  EXPECT_GT(bytes.size(), 1000u);
  auto back = VaeAqpModel::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->default_t(), (*model)->default_t());
  EXPECT_EQ((*back)->ModelSizeBytes(), bytes.size());

  util::Rng r1(12), r2(12);
  auto s1 = (*model)->Generate(100, kTPlusInf, r1);
  auto s2 = (*back)->Generate(100, kTPlusInf, r2);
  // Same weights + same RNG stream => identical samples.
  for (size_t r = 0; r < 100; ++r) {
    EXPECT_EQ(s1.CatCode(r, 0), s2.CatCode(r, 0));
  }
}

TEST(VaeModelTest, DeserializeRejectsGarbage) {
  std::vector<uint8_t> junk = {1, 2, 3, 4};
  EXPECT_FALSE(VaeAqpModel::Deserialize(junk).ok());
  util::ByteWriter w;
  w.WriteString("not-a-model");
  EXPECT_FALSE(VaeAqpModel::Deserialize(w.bytes()).ok());
}

TEST(VaeModelTest, ModelIsCompactRelativeToData) {
  // The paper's pitch: the model is far smaller than the relation.
  auto table = data::GenerateCensus({.rows = 20000, .seed = 13});
  VaeAqpOptions opts = FastOptions();
  opts.epochs = 2;  // size does not depend on training length
  auto model = VaeAqpModel::Train(table, opts);
  ASSERT_TRUE(model.ok());
  const size_t model_bytes = (*model)->ModelSizeBytes();
  const size_t data_bytes = table.num_rows() * 14 * sizeof(double);
  EXPECT_LT(model_bytes, data_bytes / 4);
  EXPECT_LT(model_bytes, 600u * 1024u);  // "few hundred KBs"
}

TEST(VaeModelTest, SamplerIntegratesWithRedHarness) {
  auto table = data::GenerateTaxi({.rows = 5000, .seed = 14});
  VaeAqpOptions opts = FastOptions();
  opts.epochs = 15;
  auto model = VaeAqpModel::Train(table, opts);
  ASSERT_TRUE(model.ok());

  data::WorkloadConfig wcfg;
  wcfg.num_queries = 20;
  auto workload = data::GenerateWorkload(table, wcfg);
  aqp::EvalOptions eopts;
  eopts.sample_fraction = 0.05;
  eopts.num_trials = 3;
  auto red = aqp::RelativeErrorDifferences(
      workload, table, (*model)->MakeSampler((*model)->default_t()), eopts);
  ASSERT_TRUE(red.ok());
  auto summary = aqp::DistributionSummary::FromValues(*red);
  // A briefly-trained model on an easy dataset: median RED under 50%.
  EXPECT_LT(summary.median, 0.5);
}

}  // namespace
}  // namespace deepaqp::vae
