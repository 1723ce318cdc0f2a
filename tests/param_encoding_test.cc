// Parameterized property suite for tuple encodings: across every encoding
// kind, bin budget, and dataset, encoding stays within [0,1], clean
// encodings decode back to the original categorical codes, and numeric
// round trips stay within one bin width.

#include <cmath>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "encoding/tuple_encoder.h"

namespace deepaqp::encoding {
namespace {

using Param = std::tuple<EncodingKind, int, const char*>;

relation::Table MakeDataset(const std::string& name) {
  if (name == "census") return data::GenerateCensus({.rows = 800, .seed = 9});
  if (name == "flights") {
    data::FlightsConfig cfg;
    cfg.rows = 800;
    cfg.seed = 9;
    cfg.flight_number_cardinality = 200;
    return data::GenerateFlights(cfg);
  }
  return data::GenerateTaxi({.rows = 800, .seed = 9});
}

class EncodingPropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  EncodingPropertyTest() : table_(MakeDataset(std::get<2>(GetParam()))) {}

  TupleEncoder Fit() {
    EncoderOptions options;
    options.kind = std::get<0>(GetParam());
    options.numeric_bins = std::get<1>(GetParam());
    auto enc = TupleEncoder::Fit(table_, options);
    EXPECT_TRUE(enc.ok());
    return std::move(enc).value();
  }

  relation::Table table_;
};

TEST_P(EncodingPropertyTest, EncodedValuesAreUnitInterval) {
  TupleEncoder enc = Fit();
  auto m = enc.EncodeAll(table_);
  ASSERT_EQ(m.rows(), table_.num_rows());
  ASSERT_EQ(m.cols(), enc.encoded_dim());
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], 0.0f);
    EXPECT_LE(m.data()[i], 1.0f);
  }
}

TEST_P(EncodingPropertyTest, CleanBitsDecodeToOriginalCodes) {
  TupleEncoder enc = Fit();
  auto m = enc.EncodeAll(table_);
  const auto cats = table_.schema().CategoricalIndices();
  for (size_t r = 0; r < 100; ++r) {
    auto codes = enc.DecodeBitsToCodes(m.Row(r));
    for (size_t c : cats) {
      EXPECT_EQ(codes[c], table_.CatCode(r, c))
          << "row " << r << " attr " << c;
    }
  }
}

TEST_P(EncodingPropertyTest, NumericRoundTripWithinOneBin) {
  TupleEncoder enc = Fit();
  auto m = enc.EncodeAll(table_);
  for (size_t c : table_.schema().NumericIndices()) {
    const auto& layout = enc.layout()[c];
    for (size_t r = 0; r < 50; ++r) {
      auto codes = enc.DecodeBitsToCodes(m.Row(r));
      const int32_t bin = codes[c];
      ASSERT_GE(bin, 0);
      ASSERT_LT(bin, layout.cardinality);
      const double v = table_.NumValue(r, c);
      // Original value must lie inside (or at the boundary of) its bin.
      EXPECT_GE(v, layout.bin_edges[bin] - 1e-9);
      EXPECT_LE(v, layout.bin_edges[bin + 1] + 1e-9);
    }
  }
}

TEST_P(EncodingPropertyTest, SerializationPreservesEncoding) {
  TupleEncoder enc = Fit();
  util::ByteWriter w;
  enc.Serialize(w);
  util::ByteReader r(w.bytes());
  auto back = TupleEncoder::Deserialize(r);
  ASSERT_TRUE(back.ok());
  auto m1 = enc.EncodeAll(table_);
  auto m2 = back->EncodeAll(table_);
  ASSERT_EQ(m1.size(), m2.size());
  for (size_t i = 0; i < m1.size(); i += 17) {
    EXPECT_EQ(m1.data()[i], m2.data()[i]);
  }
}

TEST_P(EncodingPropertyTest, DecodedTablesStayInDomain) {
  TupleEncoder enc = Fit();
  util::Rng rng(31);
  nn::Matrix logits(64, enc.encoded_dim());
  logits.RandomizeGaussian(rng, 3.0f);
  auto decoded = enc.DecodeLogits(logits, rng);
  ASSERT_EQ(decoded.num_rows(), 64u);
  for (size_t c : table_.schema().CategoricalIndices()) {
    for (size_t r = 0; r < decoded.num_rows(); ++r) {
      EXPECT_GE(decoded.CatCode(r, c), 0);
      EXPECT_LT(decoded.CatCode(r, c), enc.layout()[c].cardinality);
    }
  }
  for (size_t c : table_.schema().NumericIndices()) {
    const auto& layout = enc.layout()[c];
    for (size_t r = 0; r < decoded.num_rows(); ++r) {
      EXPECT_GE(decoded.NumValue(r, c), layout.bin_edges.front() - 1e-9);
      EXPECT_LE(decoded.NumValue(r, c), layout.bin_edges.back() + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsBinsDatasets, EncodingPropertyTest,
    ::testing::Combine(::testing::Values(EncodingKind::kOneHot,
                                         EncodingKind::kBinary,
                                         EncodingKind::kInteger),
                       ::testing::Values(4, 16, 64),
                       ::testing::Values("taxi", "census", "flights")),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string name = EncodingKindName(std::get<0>(info.param));
      // gtest names must be alphanumeric.
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "_b" + std::to_string(std::get<1>(info.param)) + "_" +
             std::get<2>(info.param);
    });

}  // namespace
}  // namespace deepaqp::encoding
