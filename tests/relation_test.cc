#include "relation/table.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "relation/csv.h"
#include "relation/dictionary.h"
#include "relation/schema.h"
#include "util/rng.h"

namespace deepaqp::relation {
namespace {

Schema TwoColSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddAttribute("color", AttrType::kCategorical).ok());
  EXPECT_TRUE(schema.AddAttribute("price", AttrType::kNumeric).ok());
  return schema;
}

TEST(SchemaTest, AddAndLookup) {
  Schema schema = TwoColSchema();
  EXPECT_EQ(schema.num_attributes(), 2u);
  EXPECT_EQ(schema.IndexOf("color"), 0);
  EXPECT_EQ(schema.IndexOf("price"), 1);
  EXPECT_EQ(schema.IndexOf("missing"), -1);
  EXPECT_TRUE(schema.IsCategorical(0));
  EXPECT_TRUE(schema.IsNumeric(1));
}

TEST(SchemaTest, RejectsDuplicateNames) {
  Schema schema = TwoColSchema();
  EXPECT_FALSE(schema.AddAttribute("color", AttrType::kNumeric).ok());
}

TEST(SchemaTest, TypeIndexLists) {
  Schema schema = TwoColSchema();
  ASSERT_TRUE(schema.AddAttribute("size", AttrType::kCategorical).ok());
  auto cats = schema.CategoricalIndices();
  auto nums = schema.NumericIndices();
  ASSERT_EQ(cats.size(), 2u);
  EXPECT_EQ(cats[0], 0u);
  EXPECT_EQ(cats[1], 2u);
  ASSERT_EQ(nums.size(), 1u);
  EXPECT_EQ(nums[0], 1u);
}

TEST(SchemaTest, Equality) {
  EXPECT_TRUE(TwoColSchema() == TwoColSchema());
  Schema other;
  ASSERT_TRUE(other.AddAttribute("color", AttrType::kNumeric).ok());
  ASSERT_TRUE(other.AddAttribute("price", AttrType::kNumeric).ok());
  EXPECT_FALSE(TwoColSchema() == other);
}

TEST(DictionaryTest, AssignsDenseCodesInFirstSeenOrder) {
  Dictionary d;
  EXPECT_EQ(d.GetOrAdd("red"), 0);
  EXPECT_EQ(d.GetOrAdd("green"), 1);
  EXPECT_EQ(d.GetOrAdd("red"), 0);
  EXPECT_EQ(d.size(), 2);
  EXPECT_EQ(d.LabelOf(1), "green");
  EXPECT_EQ(d.Lookup("blue"), -1);
}

TEST(TableTest, AppendAndRead) {
  Table t(TwoColSchema());
  t.AppendRow({Datum::Categorical(2), Datum::Numeric(9.5)});
  t.AppendRow({Datum::Categorical(0), Datum::Numeric(-1.0)});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.CatCode(0, 0), 2);
  EXPECT_EQ(t.NumValue(1, 1), -1.0);
  EXPECT_EQ(t.CellAsDouble(0, 0), 2.0);
  EXPECT_EQ(t.CellAsDouble(0, 1), 9.5);
}

TEST(TableTest, CardinalityTracksMaxCodeAndDeclaration) {
  Table t(TwoColSchema());
  t.AppendRow({Datum::Categorical(4), Datum::Numeric(0)});
  EXPECT_EQ(t.Cardinality(0), 5);
  t.DeclareCardinality(0, 10);
  EXPECT_EQ(t.Cardinality(0), 10);
}

TEST(TableTest, NumericRange) {
  Table t(TwoColSchema());
  EXPECT_EQ(t.NumericRange(1), (std::pair<double, double>{0.0, 0.0}));
  t.AppendRow({Datum::Categorical(0), Datum::Numeric(3.0)});
  t.AppendRow({Datum::Categorical(0), Datum::Numeric(-2.0)});
  t.AppendRow({Datum::Categorical(0), Datum::Numeric(7.0)});
  auto [mn, mx] = t.NumericRange(1);
  EXPECT_EQ(mn, -2.0);
  EXPECT_EQ(mx, 7.0);
}

TEST(TableTest, GatherPreservesOrderAndAllowsDuplicates) {
  Table t(TwoColSchema());
  for (int i = 0; i < 5; ++i) {
    t.AppendRow({Datum::Categorical(i), Datum::Numeric(i * 10.0)});
  }
  Table g = t.Gather({4, 0, 4});
  ASSERT_EQ(g.num_rows(), 3u);
  EXPECT_EQ(g.CatCode(0, 0), 4);
  EXPECT_EQ(g.CatCode(1, 0), 0);
  EXPECT_EQ(g.NumValue(2, 1), 40.0);
  // Cardinality knowledge survives gathering a subset.
  EXPECT_EQ(g.Cardinality(0), 5);
}

TEST(TableTest, SampleRowsSizeAndMembership) {
  Table t(TwoColSchema());
  for (int i = 0; i < 100; ++i) {
    t.AppendRow({Datum::Categorical(0), Datum::Numeric(i)});
  }
  util::Rng rng(5);
  Table s = t.SampleRows(30, rng);
  EXPECT_EQ(s.num_rows(), 30u);
  for (size_t r = 0; r < s.num_rows(); ++r) {
    const double v = s.NumValue(r, 1);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 100.0);
  }
}

TEST(TableTest, AppendMergesCompatibleTables) {
  Table a(TwoColSchema());
  a.AppendRow({Datum::Categorical(1), Datum::Numeric(1.0)});
  Table b(TwoColSchema());
  b.AppendRow({Datum::Categorical(3), Datum::Numeric(2.0)});
  ASSERT_TRUE(a.Append(b).ok());
  EXPECT_EQ(a.num_rows(), 2u);
  EXPECT_EQ(a.CatCode(1, 0), 3);
  EXPECT_EQ(a.Cardinality(0), 4);
}

TEST(TableTest, AppendRemapsThroughDictionaries) {
  Table a(TwoColSchema());
  a.AppendRow({Datum::Categorical(a.InternLabel(0, "red")),
               Datum::Numeric(1.0)});
  Table b(TwoColSchema());
  b.AppendRow({Datum::Categorical(b.InternLabel(0, "blue")),
               Datum::Numeric(2.0)});
  b.AppendRow({Datum::Categorical(b.InternLabel(0, "red")),
               Datum::Numeric(3.0)});
  ASSERT_TRUE(a.Append(b).ok());
  ASSERT_EQ(a.num_rows(), 3u);
  // "blue" got a fresh code in a's dictionary; "red" reused code 0.
  EXPECT_EQ(a.dict(0).LabelOf(a.CatCode(1, 0)), "blue");
  EXPECT_EQ(a.CatCode(2, 0), 0);
}

TEST(TableTest, AppendCopiesCodesVerbatimWhenLabelsMatch) {
  // Both sides hold the same labels, and some codes have none (AppendRow
  // accepts any non-negative code): generated pools look like this.
  Table a(TwoColSchema());
  a.InternLabel(0, "red");
  a.InternLabel(0, "blue");
  a.AppendRow({Datum::Categorical(1), Datum::Numeric(1.0)});
  Table b = a;
  b.AppendRow({Datum::Categorical(4), Datum::Numeric(2.0)});
  b.AppendRow({Datum::Categorical(0), Datum::Numeric(3.0)});
  ASSERT_TRUE(a.Append(b).ok());
  ASSERT_EQ(a.num_rows(), 4u);
  EXPECT_EQ(a.CatCode(1, 0), 1);
  EXPECT_EQ(a.CatCode(2, 0), 4);
  EXPECT_EQ(a.CatCode(3, 0), 0);
  EXPECT_EQ(a.dict(0).labels(), (std::vector<std::string>{"red", "blue"}));
  EXPECT_EQ(a.Cardinality(0), 5);
}

TEST(TableTest, AppendRejectsUnlabeledCodesItMustRemap) {
  Table a(TwoColSchema());
  a.AppendRow({Datum::Categorical(a.InternLabel(0, "red")),
               Datum::Numeric(1.0)});
  Table b(TwoColSchema());
  b.InternLabel(0, "blue");
  b.AppendRow({Datum::Categorical(0), Datum::Numeric(2.0)});
  b.AppendRow({Datum::Categorical(3), Datum::Numeric(3.0)});  // no label
  const util::Status st = a.Append(b);
  EXPECT_EQ(st.code(), util::StatusCode::kInvalidArgument) << st.ToString();
  // Nothing was appended, and no label was added.
  EXPECT_EQ(a.num_rows(), 1u);
  EXPECT_EQ(a.CatColumn(0).size(), 1u);
  EXPECT_EQ(a.NumColumn(1).size(), 1u);
  EXPECT_EQ(a.dict(0).size(), 1);
}

TEST(TableTest, AppendRejectsSchemaMismatch) {
  Table a(TwoColSchema());
  Schema other;
  ASSERT_TRUE(other.AddAttribute("x", AttrType::kNumeric).ok());
  Table b(other);
  EXPECT_FALSE(a.Append(b).ok());
}

TEST(CsvTest, RoundTrip) {
  Table t(TwoColSchema());
  t.AppendRow({Datum::Categorical(t.InternLabel(0, "red")),
               Datum::Numeric(1.5)});
  t.AppendRow({Datum::Categorical(t.InternLabel(0, "green")),
               Datum::Numeric(-3.25)});
  const std::string path = testing::TempDir() + "/deepaqp_csv_test.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());

  auto back = ReadCsv(path, t.schema());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->num_rows(), 2u);
  EXPECT_EQ(back->dict(0).LabelOf(back->CatCode(0, 0)), "red");
  EXPECT_EQ(back->NumValue(1, 1), -3.25);
  std::remove(path.c_str());
}

TEST(CsvTest, BadNumericFieldIsReported) {
  const std::string path = testing::TempDir() + "/deepaqp_csv_bad.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("color,price\nred,notanumber\n", f);
  std::fclose(f);
  auto back = ReadCsv(path, TwoColSchema());
  EXPECT_FALSE(back.ok());
  std::remove(path.c_str());
}

TEST(CsvTest, HeaderWidthMismatchIsReported) {
  const std::string path = testing::TempDir() + "/deepaqp_csv_hdr.csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  std::fputs("only_one_column\n", f);
  std::fclose(f);
  auto back = ReadCsv(path, TwoColSchema());
  EXPECT_FALSE(back.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace deepaqp::relation
