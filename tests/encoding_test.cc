#include "encoding/tuple_encoder.h"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"
#include "decode_reference.h"

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
      enc->DecodeLogits(nn::Matrix(1, enc->encoded_dim(), 10.0f),
                        {DecodeStrategy::kMaxVote, 4}, rng);
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
    auto decoded =
        enc->DecodeLogits(logits, {DecodeStrategy::kMaxVote, 8}, rng);
    ASSERT_EQ(decoded.num_rows(), 10u);
    for (size_t r = 0; r < 10; ++r) {
      EXPECT_EQ(decoded.CatCode(r, 0), t.CatCode(r, 0))
          << EncodingKindName(kind);
      // Numeric decodes into the right bin: within bin width of original.
      EXPECT_NEAR(decoded.NumValue(r, 1), t.NumValue(r, 1), 30.0);
    }
  }
}

TEST(EncoderTest, WeightedRandomDecodeProducesValidCodes) {
  Table t = SmallTable();
  auto enc = TupleEncoder::Fit(t, {});
  ASSERT_TRUE(enc.ok());
  util::Rng rng(5);
  nn::Matrix logits(50, enc->encoded_dim());  // all-zero logits: p = 0.5
  auto decoded = enc->DecodeLogits(
      logits, {DecodeStrategy::kWeightedRandom, 8}, rng);
  for (size_t r = 0; r < decoded.num_rows(); ++r) {
    EXPECT_GE(decoded.CatCode(r, 0), 0);
    EXPECT_LT(decoded.CatCode(r, 0), 3);
  }
}

TEST(EncoderTest, NaiveDecodeClampsInvalidBinaryCodes) {
  // Cardinality 3 in 2 bits: pattern 11 (=3) is invalid and must clamp to 2.
  Table t = SmallTable();
  EncoderOptions opts;
  opts.kind = EncodingKind::kBinary;
  auto enc = TupleEncoder::Fit(t, opts);
  ASSERT_TRUE(enc.ok());
  util::Rng rng(7);
  // Strong logits forcing both bits of the categorical to 1.
  nn::Matrix logits(20, enc->encoded_dim(), 12.0f);
  auto decoded =
      enc->DecodeLogits(logits, {DecodeStrategy::kNaive, 1}, rng);
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

void ExpectIdenticalTables(const Table& want, const Table& got) {
  ASSERT_EQ(want.schema(), got.schema());
  ASSERT_EQ(want.num_rows(), got.num_rows());
  for (size_t c = 0; c < want.num_attributes(); ++c) {
    if (want.schema().IsCategorical(c)) {
      EXPECT_TRUE(want.CatColumn(c) == got.CatColumn(c)) << "column " << c;
      EXPECT_EQ(want.Cardinality(c), got.Cardinality(c)) << "column " << c;
      EXPECT_EQ(want.dict(c).labels(), got.dict(c).labels())
          << "column " << c;
    } else {
      const auto& a = want.NumColumn(c);
      const auto& b = got.NumColumn(c);
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)),
                0)
          << "column " << c;
    }
  }
}

/// Equal next draws, a cached Box-Muller spare included, mean equal states.
void ExpectSameRngState(util::Rng a, util::Rng b) {
  EXPECT_EQ(a.NextGaussian(), b.NextGaussian());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(DecodeOracleTest, DecodeLogitsMatchesReferenceByteForByte) {
  // Flights mixes small labeled domains, a 300-value label-less one and
  // numeric bins; LabelGapTable adds codes past the labels and a constant
  // numeric column.
  const std::vector<Table> tables = {
      data::GenerateFlights(
          {.rows = 600, .seed = 4, .flight_number_cardinality = 300}),
      LabelGapTable()};
  uint64_t seed = 100;
  for (const Table& table : tables) {
    for (EncodingKind kind : {EncodingKind::kOneHot, EncodingKind::kBinary,
                              EncodingKind::kInteger}) {
      auto enc = TupleEncoder::Fit(table, {kind, 8});
      ASSERT_TRUE(enc.ok());
      for (bool saturated : {false, true}) {
        const nn::Matrix logits =
            TestLogits(48, enc->encoded_dim(), saturated, ++seed);
        for (DecodeStrategy strategy :
             {DecodeStrategy::kNaive, DecodeStrategy::kMaxVote,
              DecodeStrategy::kWeightedRandom}) {
          for (int draws : {1, 3, 8, 65}) {
            SCOPED_TRACE(std::string(EncodingKindName(kind)) +
                         " strategy=" +
                         std::to_string(static_cast<int>(strategy)) +
                         " draws=" + std::to_string(draws) +
                         (saturated ? " saturated" : " random") +
                         " attrs=" + std::to_string(table.num_attributes()));
            util::Rng want_rng(++seed);
            util::Rng got_rng = want_rng;
            const Table want = ReferenceDecodeLogits(
                *enc, logits, {strategy, draws}, want_rng);
            const Table got =
                enc->DecodeLogits(logits, {strategy, draws}, got_rng);
            ExpectIdenticalTables(want, got);
            ExpectSameRngState(want_rng, got_rng);
          }
        }
      }
    }
  }
}

/// Two-sample chi-square z-score over (logit row, code) cells of one
/// categorical attribute: counts[row][code] from two decoders that each
/// decoded every row the same number of times.
double TwoSampleZ(const std::vector<std::vector<int>>& a,
                  const std::vector<std::vector<int>>& b) {
  double chi2 = 0.0;
  double df = 0.0;
  for (size_t r = 0; r < a.size(); ++r) {
    int cells = 0;
    for (size_t v = 0; v < a[r].size(); ++v) {
      const double total = a[r][v] + b[r][v];
      if (total == 0) continue;
      const double diff = a[r][v] - b[r][v];
      chi2 += diff * diff / total;
      ++cells;
    }
    if (cells > 1) df += cells - 1;
  }
  return df > 0 ? (chi2 - df) / std::sqrt(2.0 * df) : 0.0;
}

// Weighted-random over D draws picks value v with probability count(v)/D,
// which is returning draw J for a uniform J: each decoded attribute is
// distributed exactly like one naive draw. Max-vote is not (it sharpens
// toward the mode). Seeded, so the z-scores are fixed numbers.
TEST(DecodeDistributionTest, WeightedRandomIsDistributedLikeNaive) {
  auto table = data::GenerateCensus({.rows = 2000, .seed = 3});
  auto enc = TupleEncoder::Fit(table, {});
  ASSERT_TRUE(enc.ok());
  constexpr size_t kRows = 64;
  constexpr size_t kRepeats = 1500;
  const nn::Matrix fixed = TestLogits(kRows, enc->encoded_dim(), false, 9);
  nn::Matrix logits(kRows * kRepeats, enc->encoded_dim());
  for (size_t r = 0; r < logits.rows(); ++r) {
    std::memcpy(logits.Row(r), fixed.Row(r % kRows),
                enc->encoded_dim() * sizeof(float));
  }
  // counts[attribute][row][code]
  auto tally = [&](const DecodeOptions& options, uint64_t seed) {
    util::Rng rng(seed);
    const Table decoded = enc->DecodeLogits(logits, options, rng);
    std::vector<std::vector<std::vector<int>>> counts(
        table.num_attributes());
    for (size_t c = 0; c < table.num_attributes(); ++c) {
      if (!table.schema().IsCategorical(c)) continue;
      counts[c].assign(kRows,
                       std::vector<int>(enc->layout()[c].cardinality, 0));
      for (size_t r = 0; r < decoded.num_rows(); ++r) {
        ++counts[c][r % kRows][decoded.CatCode(r, c)];
      }
    }
    return counts;
  };
  const auto naive = tally({DecodeStrategy::kNaive, 1}, 11);
  const auto weighted = tally({DecodeStrategy::kWeightedRandom, 8}, 12);
  const auto max_vote = tally({DecodeStrategy::kMaxVote, 8}, 13);
  double max_vote_z = 0.0;
  for (size_t c = 0; c < table.num_attributes(); ++c) {
    if (!table.schema().IsCategorical(c)) continue;
    EXPECT_LT(std::abs(TwoSampleZ(naive[c], weighted[c])), 4.0)
        << table.schema().attribute(c).name;
    max_vote_z = std::max(max_vote_z, TwoSampleZ(naive[c], max_vote[c]));
  }
  EXPECT_GT(max_vote_z, 20.0);
}

}  // namespace
}  // namespace deepaqp::encoding
