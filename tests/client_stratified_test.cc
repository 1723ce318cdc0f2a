#include <cmath>

#include <gtest/gtest.h>

#include "aqp/executor.h"
#include "aqp/metrics.h"
#include "data/generators.h"
#include "vae/client.h"

namespace deepaqp {
namespace {

vae::VaeAqpOptions FastOptions() {
  vae::VaeAqpOptions opts;
  opts.epochs = 10;
  opts.hidden_dim = 48;
  opts.seed = 81;
  opts.encoder.numeric_bins = 16;
  return opts;
}

TEST(AqpClientTest, OpensFromBytesAndAnswersSql) {
  auto table = data::GenerateTaxi({.rows = 5000, .seed = 1});
  auto model = vae::VaeAqpModel::Train(table, FastOptions());
  ASSERT_TRUE(model.ok());
  vae::AqpClient::Options copts;
  copts.population_rows = table.num_rows();
  copts.initial_samples = 1500;
  auto client = vae::AqpClient::Open((*model)->Serialize(), copts);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*client)->pool_size(), 1500u);

  auto result = (*client)->Query("SELECT AVG(fare) FROM R");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  aqp::AggregateQuery q;
  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = table.schema().IndexOf("fare");
  const double truth = aqp::ExecuteExact(q, table)->Scalar();
  EXPECT_LT(aqp::RelativeError(result->Scalar(), truth), 0.4);
}

TEST(AqpClientTest, SqlLabelsResolveThroughShippedDictionaries) {
  auto table = data::GenerateTaxi({.rows = 3000, .seed = 2});
  auto model = vae::VaeAqpModel::Train(table, FastOptions());
  ASSERT_TRUE(model.ok());
  auto client = vae::AqpClient::Wrap(std::move(model).value(), {});
  auto result = client->Query(
      "SELECT COUNT(*) FROM R WHERE pickup_borough = 'Manhattan'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->Scalar(), 0.0);
}

TEST(AqpClientTest, BadSqlSurfacesParserError) {
  auto table = data::GenerateTaxi({.rows = 1000, .seed = 3});
  auto model = vae::VaeAqpModel::Train(table, FastOptions());
  ASSERT_TRUE(model.ok());
  auto client = vae::AqpClient::Wrap(std::move(model).value(), {});
  EXPECT_FALSE(client->Query("SELECT MAX(fare) FROM R").ok());
  EXPECT_FALSE(client->Query("garbage").ok());
}

TEST(AqpClientTest, PrecisionOnDemandGrowsPool) {
  auto table = data::GenerateTaxi({.rows = 6000, .seed = 4});
  auto model = vae::VaeAqpModel::Train(table, FastOptions());
  ASSERT_TRUE(model.ok());
  vae::AqpClient::Options copts;
  copts.population_rows = table.num_rows();
  copts.initial_samples = 200;
  copts.max_samples = 20000;
  auto client = vae::AqpClient::Wrap(std::move(model).value(), copts);

  aqp::AggregateQuery q;
  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = table.schema().IndexOf("fare");
  const size_t before = client->pool_size();
  auto result = client->QueryWithMaxRelativeCi(q, 0.02);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(client->pool_size(), before);
  const auto& g = result->groups[0];
  EXPECT_LE(g.ci_half_width / std::abs(g.value), 0.02 + 1e-9);
}

TEST(AqpClientTest, PoolGrowthRespectsCap) {
  auto table = data::GenerateTaxi({.rows = 2000, .seed = 5});
  auto model = vae::VaeAqpModel::Train(table, FastOptions());
  ASSERT_TRUE(model.ok());
  vae::AqpClient::Options copts;
  copts.initial_samples = 100;
  copts.max_samples = 400;
  auto client = vae::AqpClient::Wrap(std::move(model).value(), copts);
  aqp::AggregateQuery q;
  q.agg = aqp::AggFunc::kAvg;
  q.measure_attr = table.schema().IndexOf("fare");
  // Unreachable precision: growth must stop at the cap, not loop forever.
  auto result = client->QueryWithMaxRelativeCi(q, 1e-9);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(client->pool_size(), 400u);
}

}  // namespace
}  // namespace deepaqp
