// Client query-cache correctness: pool growth via QueryWithMaxRelativeCi
// must evaluate only the newly generated suffix rows, yet return results
// byte-identical to a cache-less aqp::EstimateFromSample scan of the same
// pool.

#include <cstring>

#include <gtest/gtest.h>

#include "aqp/estimator.h"
#include "data/generators.h"
#include "vae/client.h"

namespace deepaqp {
namespace {

uint64_t Bits(double x) {
  uint64_t b = 0;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

void ExpectBitIdentical(const aqp::QueryResult& a, const aqp::QueryResult& b,
                        const std::string& context) {
  ASSERT_EQ(a.groups.size(), b.groups.size()) << context;
  for (size_t i = 0; i < a.groups.size(); ++i) {
    EXPECT_EQ(a.groups[i].group, b.groups[i].group) << context;
    EXPECT_EQ(a.groups[i].support, b.groups[i].support) << context;
    EXPECT_EQ(Bits(a.groups[i].value), Bits(b.groups[i].value)) << context;
    EXPECT_EQ(Bits(a.groups[i].ci_half_width), Bits(b.groups[i].ci_half_width))
        << context;
  }
}

/// One small model, trained once and re-opened from bytes per client so
/// every client in this suite sees the identical generator.
const std::vector<uint8_t>& ModelBytes() {
  static const std::vector<uint8_t>* bytes = [] {
    auto table = data::GenerateTaxi({.rows = 4000, .seed = 21});
    vae::VaeAqpOptions opts;
    opts.epochs = 8;
    opts.hidden_dim = 48;
    opts.seed = 77;
    opts.encoder.numeric_bins = 16;
    auto model = vae::VaeAqpModel::Train(table, opts);
    EXPECT_TRUE(model.ok());
    return new std::vector<uint8_t>((*model)->Serialize());
  }();
  return *bytes;
}

/// A second model over the same schema (different training seed): swapping
/// to it must discard every cached artifact of the first.
const std::vector<uint8_t>& SwappedModelBytes() {
  static const std::vector<uint8_t>* bytes = [] {
    auto table = data::GenerateTaxi({.rows = 4000, .seed = 21});
    vae::VaeAqpOptions opts;
    opts.epochs = 8;
    opts.hidden_dim = 48;
    opts.seed = 78;
    opts.encoder.numeric_bins = 16;
    auto model = vae::VaeAqpModel::Train(table, opts);
    EXPECT_TRUE(model.ok());
    return new std::vector<uint8_t>((*model)->Serialize());
  }();
  return *bytes;
}

vae::AqpClient::Options ClientOptions() {
  vae::AqpClient::Options copts;
  copts.initial_samples = 400;
  copts.max_samples = 6400;
  copts.population_rows = 4000;
  copts.seed = 2027;
  return copts;
}

aqp::AggregateQuery FilteredAvg(const vae::AqpClient& client) {
  aqp::AggregateQuery q;
  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = client.pool().schema().IndexOf("fare");
  q.filter.conditions.push_back(
      {static_cast<size_t>(client.pool().schema().IndexOf("trip_distance")),
       aqp::CmpOp::kGt, 1.0});
  return q;
}

TEST(ClientCacheTest, GrowthMatchesColdRescanBitForBit) {
  auto warm = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(warm.ok());
  aqp::AggregateQuery q = FilteredAvg(**warm);
  // Every refinement step of the QueryWithMaxRelativeCi trajectory must
  // equal a cold full rescan of the pool it was computed on (no cache at
  // all), so the cached and cache-less trajectories grow alike.
  bool final = false;
  while (!final) {
    auto step = (*warm)->QueryRefineStep(q, 0.03, &final);
    ASSERT_TRUE(step.ok());
    auto cold = aqp::EstimateFromSample(q, (*warm)->pool(), 4000);
    ASSERT_TRUE(cold.ok());
    ExpectBitIdentical(*step, *cold,
                       "growth step at pool " +
                           std::to_string((*warm)->pool_size()));
  }
  EXPECT_GT((*warm)->pool_size(), 400u);  // precision-on-demand grew

  // Suffix-only evaluation: across the whole doubling trajectory every pool
  // row went through the filter kernel and the aggregation pass exactly
  // once — a cache-less client would have rescanned each prefix per round.
  const auto& stats = (*warm)->cache_stats();
  EXPECT_EQ(stats.filter_entries, 1u);
  EXPECT_EQ(stats.agg_entries, 1u);
  EXPECT_EQ(stats.rows_filtered, (*warm)->pool_size());
  EXPECT_EQ(stats.rows_aggregated, (*warm)->pool_size());
}

TEST(ClientCacheTest, RepeatedQueryReevaluatesNothing) {
  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(client.ok());
  aqp::AggregateQuery q = FilteredAvg(**client);
  auto first = (*client)->Query(q);
  ASSERT_TRUE(first.ok());
  const uint64_t filtered = (*client)->cache_stats().rows_filtered;
  const uint64_t aggregated = (*client)->cache_stats().rows_aggregated;
  auto second = (*client)->Query(q);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*client)->cache_stats().rows_filtered, filtered);
  EXPECT_EQ((*client)->cache_stats().rows_aggregated, aggregated);
  ExpectBitIdentical(*first, *second, "repeat");
}

TEST(ClientCacheTest, PredicateBitmapSharedAcrossMeasures) {
  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(client.ok());
  aqp::AggregateQuery q1 = FilteredAvg(**client);
  aqp::AggregateQuery q2 = q1;
  q2.measure_attr = (*client)->pool().schema().IndexOf("duration_min");
  ASSERT_TRUE((*client)->Query(q1).ok());
  ASSERT_TRUE((*client)->Query(q2).ok());
  const auto& stats = (*client)->cache_stats();
  EXPECT_EQ(stats.filter_entries, 1u);  // one bitmap for both measures
  EXPECT_EQ(stats.agg_entries, 2u);
  EXPECT_EQ(stats.rows_filtered, (*client)->pool_size());
}

TEST(ClientCacheTest, QuantileLevelsShareAccumulation) {
  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(client.ok());
  aqp::AggregateQuery q = FilteredAvg(**client);
  q.agg = aqp::AggFunc::kQuantile;
  q.quantile = 0.5;
  auto median = (*client)->Query(q);
  ASSERT_TRUE(median.ok());
  q.quantile = 0.9;
  auto p90 = (*client)->Query(q);
  ASSERT_TRUE(p90.ok());
  EXPECT_EQ((*client)->cache_stats().agg_entries, 1u);

  // Both levels must agree with a cache-less scan of the same pool.
  q.quantile = 0.5;
  auto median_ref =
      aqp::EstimateFromSample(q, (*client)->pool(), 4000);
  q.quantile = 0.9;
  auto p90_ref = aqp::EstimateFromSample(q, (*client)->pool(), 4000);
  ASSERT_TRUE(median_ref.ok() && p90_ref.ok());
  ExpectBitIdentical(*median, *median_ref, "median");
  ExpectBitIdentical(*p90, *p90_ref, "p90");
}

TEST(ClientCacheTest, ModelSwapInvalidatesCacheAndMatchesFreshClient) {
  ASSERT_NE(ModelBytes(), SwappedModelBytes());  // genuinely different model

  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(client.ok());
  aqp::AggregateQuery q = FilteredAvg(**client);
  ASSERT_TRUE((*client)->QueryWithMaxRelativeCi(q, 0.03).ok());
  EXPECT_GT((*client)->cache_stats().agg_entries, 0u);
  EXPECT_GT((*client)->pool_size(), 400u);

  // Hot swap: pool, bitmaps, group moments and the rng stream all reset —
  // nothing computed against the old generator may answer new queries.
  auto model_b = vae::VaeAqpModel::Deserialize(SwappedModelBytes());
  ASSERT_TRUE(model_b.ok());
  (*client)->SwapModel(std::move(*model_b));
  const auto& stats = (*client)->cache_stats();
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.filter_entries, 0u);
  EXPECT_EQ(stats.agg_entries, 0u);
  EXPECT_EQ((*client)->pool_size(), 400u);  // back to initial_samples

  // Post-swap behaviour is bit-identical to a client freshly opened on the
  // new model: the swap left no trace of the old one.
  auto swapped = (*client)->QueryWithMaxRelativeCi(q, 0.03);
  ASSERT_TRUE(swapped.ok());
  auto fresh = vae::AqpClient::Open(SwappedModelBytes(), ClientOptions());
  ASSERT_TRUE(fresh.ok());
  auto fresh_result = (*fresh)->QueryWithMaxRelativeCi(q, 0.03);
  ASSERT_TRUE(fresh_result.ok());
  EXPECT_EQ((*client)->pool_size(), (*fresh)->pool_size());
  ExpectBitIdentical(*swapped, *fresh_result, "post-swap growth");
}

TEST(ClientCacheTest, GroupByGrowthHandlesNewGroupCodes) {
  auto client = vae::AqpClient::Open(ModelBytes(), ClientOptions());
  ASSERT_TRUE(client.ok());
  aqp::AggregateQuery q;
  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = (*client)->pool().schema().IndexOf("fare");
  q.group_by_attr = (*client)->pool().schema().IndexOf("pickup_borough");
  auto grown = (*client)->QueryWithMaxRelativeCi(q, 0.05);
  ASSERT_TRUE(grown.ok());

  auto reference = aqp::EstimateFromSample(q, (*client)->pool(), 4000);
  ASSERT_TRUE(reference.ok());
  ExpectBitIdentical(*grown, *reference, "group-by growth");
}

}  // namespace
}  // namespace deepaqp
