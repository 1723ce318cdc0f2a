#include "encoding/tuple_encoder.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"

namespace deepaqp::encoding {
namespace {

using relation::AttrType;
using relation::Datum;
using relation::Schema;
using relation::Table;

Table SmallTable() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("color", AttrType::kCategorical).ok());
  EXPECT_TRUE(s.AddAttribute("value", AttrType::kNumeric).ok());
  Table t(s);
  t.DeclareCardinality(0, 3);
  for (int i = 0; i < 90; ++i) {
    t.AppendRow({Datum::Categorical(i % 3), Datum::Numeric(i)});
  }
  return t;
}

TEST(EncoderTest, OneHotWidths) {
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kOneHot;
  opts.numeric_bins = 4;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  // color: 3 slots; value: 4 bins one-hot = 4 slots.
  EXPECT_EQ(enc->encoded_dim(), 7u);
  EXPECT_EQ(enc->layout()[0].width, 3u);
  EXPECT_EQ(enc->layout()[1].width, 4u);
}

TEST(EncoderTest, BinaryWidthsAreLogarithmic) {
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kBinary;
  opts.numeric_bins = 8;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  // color card 3 -> 2 bits; 8 bins -> 3 bits.
  EXPECT_EQ(enc->layout()[0].width, 2u);
  EXPECT_EQ(enc->layout()[1].width, 3u);
  EXPECT_EQ(enc->encoded_dim(), 5u);
}

TEST(EncoderTest, IntegerWidthIsOne) {
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kInteger;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  EXPECT_EQ(enc->encoded_dim(), 2u);
}

TEST(EncoderTest, OneHotEncodeSetsExactlyOneSlotPerAttribute) {
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kOneHot;
  opts.numeric_bins = 4;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  auto m = enc->EncodeAll(t);
  for (size_t r = 0; r < m.rows(); ++r) {
    float cat_sum = 0, num_sum = 0;
    for (size_t c = 0; c < 3; ++c) cat_sum += m.At(r, c);
    for (size_t c = 3; c < 7; ++c) num_sum += m.At(r, c);
    EXPECT_EQ(cat_sum, 1.0f);
    EXPECT_EQ(num_sum, 1.0f);
  }
  // Row 5: color = 2 -> slot 2 set.
  EXPECT_EQ(m.At(5, 2), 1.0f);
}

TEST(EncoderTest, BinaryEncodeMatchesBitPattern) {
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kBinary;
  opts.numeric_bins = 4;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  auto m = enc->EncodeAll(t);
  // Row 5: color = 2 -> bits LSB-first: 0, 1.
  EXPECT_EQ(m.At(5, 0), 0.0f);
  EXPECT_EQ(m.At(5, 1), 1.0f);
}

TEST(EncoderTest, DecodeBitsRoundTripsCleanEncodings) {
  Table t = SmallTable();
  for (EncodingKind kind :
       {EncodingKind::kOneHot, EncodingKind::kBinary,
        EncodingKind::kInteger}) {
    EncoderOptions opts;
    opts.kind = kind;
    opts.numeric_bins = 8;
    auto enc = TupleEncoder::Fit(t, opts);
    ASSERT_TRUE(enc.ok());
    auto m = enc->EncodeAll(t);
    for (size_t r = 0; r < 30; ++r) {
      auto codes = enc->DecodeBitsToCodes(m.Row(r));
      EXPECT_EQ(codes[0], t.CatCode(r, 0))
          << EncodingKindName(kind) << " row " << r;
    }
  }
}

TEST(EncoderTest, EquiDepthBinsBalanceCounts) {
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kOneHot;
  opts.numeric_bins = 3;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  auto m = enc->EncodeAll(t);
  // Values 0..89 split into 3 equi-depth bins -> 30 rows per bin.
  std::vector<int> counts(3, 0);
  for (size_t r = 0; r < m.rows(); ++r) {
    for (int b = 0; b < 3; ++b) {
      if (m.At(r, 3 + b) == 1.0f) ++counts[b];
    }
  }
  for (int b = 0; b < 3; ++b) EXPECT_NEAR(counts[b], 30, 2);
}

TEST(EncoderTest, ConstantNumericColumnSurvives) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("k", AttrType::kNumeric).ok());
  Table t(s);
  for (int i = 0; i < 10; ++i) t.AppendRow({Datum::Numeric(7.0)});
  auto enc = TupleEncoder::Fit(t, {});
  ASSERT_TRUE(enc.ok());
  auto m = enc->EncodeAll(t);
  util::Rng rng(1);
  auto decoded =
      enc->DecodeLogits(nn::Matrix(1, enc->encoded_dim(), 10.0f), rng);
  EXPECT_EQ(decoded.NumValue(0, 0), 7.0);
}

TEST(EncoderTest, RejectsEmptyTableAndBadBins) {
  Schema s;
  ASSERT_TRUE(s.AddAttribute("x", AttrType::kNumeric).ok());
  Table empty(s);
  EXPECT_FALSE(TupleEncoder::Fit(empty, {}).ok());
  Table t = SmallTable();
  EncoderOptions bad;
  bad.numeric_bins = 1;
  EXPECT_FALSE(TupleEncoder::Fit(t, bad).ok());
}

TEST(EncoderTest, DecodeLogitsWithConfidentLogitsRecoversTuple) {
  Table t = SmallTable();
  for (EncodingKind kind :
       {EncodingKind::kOneHot, EncodingKind::kBinary}) {
    EncoderOptions opts;
    opts.kind = kind;
    opts.numeric_bins = 4;
    auto enc = TupleEncoder::Fit(t, opts);
    ASSERT_TRUE(enc.ok());
    auto bits = enc->EncodeAll(t);
    // Map bits {0,1} to large-magnitude logits {-12, +12}.
    nn::Matrix logits(10, enc->encoded_dim());
    for (size_t r = 0; r < 10; ++r) {
      for (size_t c = 0; c < enc->encoded_dim(); ++c) {
        logits.At(r, c) = bits.At(r, c) > 0.5f ? 12.0f : -12.0f;
      }
    }
    util::Rng rng(3);
    auto decoded = enc->DecodeLogits(logits, rng);
    ASSERT_EQ(decoded.num_rows(), 10u);
    for (size_t r = 0; r < 10; ++r) {
      EXPECT_EQ(decoded.CatCode(r, 0), t.CatCode(r, 0))
          << EncodingKindName(kind);
      // Numeric decodes into the right bin: within bin width of original.
      EXPECT_NEAR(decoded.NumValue(r, 1), t.NumValue(r, 1), 30.0);
    }
  }
}

TEST(EncoderTest, DecodeClampsInvalidBinaryCodes) {
  // Cardinality 3 in 2 bits: pattern 11 (=3) is invalid and must clamp to 2.
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kBinary;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  util::Rng rng(7);
  // Strong logits forcing both bits of the categorical to 1.
  nn::Matrix logits(20, enc->encoded_dim(), 12.0f);
  auto decoded = enc->DecodeLogits(logits, rng);
  for (size_t r = 0; r < decoded.num_rows(); ++r) {
    EXPECT_EQ(decoded.CatCode(r, 0), 2);
  }
}

TEST(EncoderTest, SerializeRoundTrip) {
  auto table = data::GenerateCensus({.rows = 500, .seed = 11});
  EncoderOptions opts;
  opts.kind = EncodingKind::kBinary;
  opts.numeric_bins = 16;
  auto enc = TupleEncoder::Fit(table, opts);
  ASSERT_TRUE(enc.ok());

  util::ByteWriter w;
  enc->Serialize(w);
  util::ByteReader r(w.bytes());
  auto back = TupleEncoder::Deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->encoded_dim(), enc->encoded_dim());
  EXPECT_TRUE(back->schema() == enc->schema());

  auto m1 = enc->EncodeAll(table);
  auto m2 = back->EncodeAll(table);
  ASSERT_EQ(m1.size(), m2.size());
  for (size_t i = 0; i < m1.size(); i += 13) {
    EXPECT_EQ(m1.data()[i], m2.data()[i]);
  }
}

TEST(EncoderTest, EncodedDimsMatchPaperFormulas) {
  auto table = data::GenerateCensus({.rows = 1000, .seed = 13});
  EncoderOptions one_hot{EncodingKind::kOneHot, 32};
  EncoderOptions binary{EncodingKind::kBinary, 32};
  auto e1 = TupleEncoder::Fit(table, one_hot);
  auto e2 = TupleEncoder::Fit(table, binary);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  // Binary is exponentially denser than one-hot (Sec. IV-E).
  EXPECT_LT(e2->encoded_dim(), e1->encoded_dim() / 2);
  size_t expect_one_hot = 0, expect_binary = 0;
  for (const auto& layout : e1->layout()) {
    expect_one_hot += layout.cardinality;
  }
  for (const auto& layout : e2->layout()) {
    size_t bits = 1;
    while ((1 << bits) < layout.cardinality) ++bits;
    expect_binary += bits;
  }
  EXPECT_EQ(e1->encoded_dim(), expect_one_hot);
  EXPECT_EQ(e2->encoded_dim(), expect_binary);
}

/// A categorical column whose codes run past its labels (2 labels, codes
/// 0-4) and a constant numeric column (one bin with equal edges, which
/// decodes without a draw), next to an ordinary numeric column.
Table LabelGapTable() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("tag", AttrType::kCategorical).ok());
  EXPECT_TRUE(s.AddAttribute("flat", AttrType::kNumeric).ok());
  EXPECT_TRUE(s.AddAttribute("value", AttrType::kNumeric).ok());
  Table t(s);
  t.InternLabel(0, "a");
  t.InternLabel(0, "b");
  for (int i = 0; i < 200; ++i) {
    t.AppendRow({Datum::Categorical(i % 5), Datum::Numeric(7.0),
                 Datum::Numeric(i * 0.5)});
  }
  return t;
}

/// Random logits, or saturated ones (+-40: every draw of a slot agrees).
nn::Matrix TestLogits(size_t rows, size_t cols, bool saturated,
                      uint64_t seed) {
  util::Rng rng(seed);
  nn::Matrix logits(rows, cols);
  for (size_t i = 0; i < logits.size(); ++i) {
    logits.data()[i] =
        saturated ? (rng.Bernoulli(0.5) ? 40.0f : -40.0f)
                  : static_cast<float>(rng.Gaussian(0.0, 3.0));
  }
  return logits;
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 0x100000001b3ull;
  return h;
}

/// FNV-1a over a decoded table (domain sizes, labels, codes, value bits)
/// and the decoding rng's next Gaussian (a cached Box-Muller spare
/// included) and next 64-bit draw.
uint64_t DecodeDigest(const Table& t, util::Rng& rng) {
  uint64_t h = kFnvOffset;
  for (size_t c = 0; c < t.num_attributes(); ++c) {
    if (t.schema().IsCategorical(c)) {
      const int32_t card = t.Cardinality(c);
      h = Fnv(h, &card, sizeof(card));
      for (const std::string& label : t.dict(c).labels()) {
        h = Fnv(h, label.c_str(), label.size() + 1);
      }
      const auto& col = t.CatColumn(c);
      h = Fnv(h, col.data(), col.size() * sizeof(col[0]));
    } else {
      const auto& col = t.NumColumn(c);
      h = Fnv(h, col.data(), col.size() * sizeof(col[0]));
    }
  }
  const double g = rng.NextGaussian();
  const uint64_t u = rng.NextUint64();
  h = Fnv(h, &g, sizeof(g));
  return Fnv(h, &u, sizeof(u));
}

TEST(DecodeGoldenTest, DecodeLogitsKeepsItsTablesAndRngStream) {
  // Digests of the one-draw decode, recorded while it was still one of
  // three strategies (the naive one, at one draw): pools depend on this
  // stream byte for byte. Flights mixes small labeled domains, a 300-value
  // label-less one and numeric bins; LabelGapTable adds codes past the
  // labels and a constant numeric column. Per table: one-hot, binary,
  // integer, each on random then saturated logits.
  const std::vector<Table> tables = {
      data::GenerateFlights(
          {.rows = 600, .seed = 4, .flight_number_cardinality = 300}),
      LabelGapTable()};
  const uint64_t want[] = {
      0x9181da94c04265beull, 0xdc09bf4e92639457ull, 0x90d1ad5ead3cdb8bull,
      0x950694d79717b82dull, 0xbc8b382f5a328fd2ull, 0x1ff02212cb10a7feull,
      0xbd4b2cab38c74a34ull, 0x16a2459aea6a42a8ull, 0x997406e4afdde455ull,
      0xd6d5c9c2b3419ba6ull, 0xaf35c54fe9ef2af2ull, 0xefe6b728b4d2c06aull};
  size_t i = 0;
  uint64_t seed = 100;
  for (const Table& table : tables) {
    for (EncodingKind kind : {EncodingKind::kOneHot, EncodingKind::kBinary,
                              EncodingKind::kInteger}) {
      auto enc = TupleEncoder::Fit(table, {kind, 8});
      ASSERT_TRUE(enc.ok());
      for (bool saturated : {false, true}) {
        const nn::Matrix logits =
            TestLogits(48, enc->encoded_dim(), saturated, ++seed);
        util::Rng rng(++seed);
        const Table got = enc->DecodeLogits(logits, rng);
        EXPECT_EQ(DecodeDigest(got, rng), want[i++])
            << EncodingKindName(kind) << (saturated ? " saturated" : " random")
            << " attrs=" << table.num_attributes();
      }
    }
  }
}

/// Expected counts of each code of a binary-encoded attribute in `n`
/// one-draw decodes: independent bits with the sigmoid probabilities the
/// decoder draws with, every code past the domain moved to `clamp_to`.
std::vector<double> ExpectedCodeCounts(const TupleEncoder::AttrLayout& layout,
                                       const float* logits, int32_t clamp_to,
                                       double n) {
  std::vector<double> expected(layout.cardinality, 0.0);
  for (int32_t v = 0; v < (1 << layout.width); ++v) {
    double p = n;
    for (size_t b = 0; b < layout.width; ++b) {
      const double bit = 1.0f / (1.0f + std::exp(-logits[b]));
      p *= (v >> b) & 1 ? bit : 1.0 - bit;
    }
    expected[v < layout.cardinality ? v : clamp_to] += p;
  }
  return expected;
}

/// Chi-square z-score of decoded code counts against their expected
/// counts, summed over (logit row, categorical attribute). Codes expecting
/// fewer than 5 are merged into the smallest code expecting more.
double ChiSquareZ(const std::vector<std::vector<int>>& counts,
                  const std::vector<std::vector<double>>& expected) {
  double chi2 = 0.0;
  double df = 0.0;
  for (size_t r = 0; r < counts.size(); ++r) {
    std::vector<std::pair<double, int>> cells;  // (expected, observed)
    std::pair<double, int> small{0.0, 0};
    for (size_t v = 0; v < counts[r].size(); ++v) {
      auto& cell = expected[r][v] < 5.0 ? small : cells.emplace_back();
      cell.first += expected[r][v];
      cell.second += counts[r][v];
    }
    auto& smallest = *std::min_element(cells.begin(), cells.end());
    smallest.first += small.first;
    smallest.second += small.second;
    for (const auto& [e, o] : cells) chi2 += (o - e) * (o - e) / e;
    df += static_cast<double>(cells.size()) - 1.0;
  }
  return (chi2 - df) / std::sqrt(2.0 * df);
}

// Each categorical attribute of the one-draw binary decode follows its
// analytic distribution: independent Bernoulli bits, the mass of codes
// past the domain clamped to cardinality - 1. The same counts against a
// clamp to code 0 show the statistic can tell. Seeded, so the z-scores are
// fixed numbers.
TEST(DecodeDistributionTest, OneDrawBinaryDecodeMatchesItsDistribution) {
  auto table = data::GenerateCensus({.rows = 2000, .seed = 3});
  auto enc = TupleEncoder::Fit(table, {});
  ASSERT_TRUE(enc.ok());
  ASSERT_EQ(enc->kind(), EncodingKind::kBinary);
  constexpr size_t kRows = 64;
  constexpr size_t kRepeats = 1500;
  const nn::Matrix fixed = TestLogits(kRows, enc->encoded_dim(), false, 9);
  nn::Matrix logits(kRows * kRepeats, enc->encoded_dim());
  for (size_t r = 0; r < logits.rows(); ++r) {
    std::memcpy(logits.Row(r), fixed.Row(r % kRows),
                enc->encoded_dim() * sizeof(float));
  }
  util::Rng rng(11);
  const Table decoded = enc->DecodeLogits(logits, rng);
  std::vector<std::vector<int>> counts;
  std::vector<std::vector<double>> clamped;
  std::vector<std::vector<double>> to_zero;
  for (size_t c = 0; c < table.num_attributes(); ++c) {
    if (!table.schema().IsCategorical(c)) continue;
    const TupleEncoder::AttrLayout& layout = enc->layout()[c];
    for (size_t r = 0; r < kRows; ++r) {
      std::vector<int> count(layout.cardinality, 0);
      for (size_t rep = 0; rep < kRepeats; ++rep) {
        ++count[decoded.CatCode(rep * kRows + r, c)];
      }
      counts.push_back(count);
      const float* z = fixed.Row(r) + layout.offset;
      clamped.push_back(
          ExpectedCodeCounts(layout, z, layout.cardinality - 1, kRepeats));
      to_zero.push_back(ExpectedCodeCounts(layout, z, 0, kRepeats));
    }
  }
  EXPECT_LT(std::abs(ChiSquareZ(counts, clamped)), 4.0);
  EXPECT_GT(ChiSquareZ(counts, to_zero), 20.0);
}

}  // namespace
}  // namespace deepaqp::encoding
