#include "relation/table.h"

#include <algorithm>
#include <string>

#include "util/logging.h"

namespace deepaqp::relation {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  const size_t m = schema_.num_attributes();
  cat_columns_.resize(m);
  num_columns_.resize(m);
  dicts_.resize(m);
  declared_cardinality_.assign(m, 0);
}

void Table::AppendRow(const std::vector<Datum>& row) {
  DEEPAQP_CHECK_EQ(row.size(), schema_.num_attributes());
  for (size_t c = 0; c < row.size(); ++c) {
    if (schema_.IsCategorical(c)) {
      DEEPAQP_CHECK_GE(row[c].cat, 0);
      cat_columns_[c].push_back(row[c].cat);
    } else {
      num_columns_[c].push_back(row[c].num);
    }
  }
  ++num_rows_;
}

int32_t Table::CatCode(size_t row, size_t col) const {
  DEEPAQP_CHECK(schema_.IsCategorical(col));
  return cat_columns_[col][row];
}

double Table::NumValue(size_t row, size_t col) const {
  DEEPAQP_CHECK(schema_.IsNumeric(col));
  return num_columns_[col][row];
}

double Table::CellAsDouble(size_t row, size_t col) const {
  if (schema_.IsCategorical(col)) {
    return static_cast<double>(cat_columns_[col][row]);
  }
  return num_columns_[col][row];
}

Dictionary& Table::dict(size_t col) {
  DEEPAQP_CHECK(schema_.IsCategorical(col));
  return dicts_[col];
}

const Dictionary& Table::dict(size_t col) const {
  DEEPAQP_CHECK(schema_.IsCategorical(col));
  return dicts_[col];
}

int32_t Table::InternLabel(size_t col, const std::string& label) {
  return dict(col).GetOrAdd(label);
}

int32_t Table::Cardinality(size_t col) const {
  DEEPAQP_CHECK(schema_.IsCategorical(col));
  int32_t card = std::max(declared_cardinality_[col], dicts_[col].size());
  const auto& codes = cat_columns_[col];
  if (!codes.empty()) {
    const int32_t max_code = *std::max_element(codes.begin(), codes.end());
    card = std::max(card, max_code + 1);
  }
  return card;
}

void Table::DeclareCardinality(size_t col, int32_t cardinality) {
  DEEPAQP_CHECK(schema_.IsCategorical(col));
  DEEPAQP_CHECK_GT(cardinality, 0);
  declared_cardinality_[col] = cardinality;
}

std::pair<double, double> Table::NumericRange(size_t col) const {
  DEEPAQP_CHECK(schema_.IsNumeric(col));
  const auto& vals = num_columns_[col];
  if (vals.empty()) return {0.0, 0.0};
  const auto [mn, mx] = std::minmax_element(vals.begin(), vals.end());
  return {*mn, *mx};
}

Table Table::Gather(const std::vector<size_t>& rows) const {
  Table out(schema_);
  const size_t m = schema_.num_attributes();
  for (size_t c = 0; c < m; ++c) {
    if (schema_.IsCategorical(c)) {
      out.cat_columns_[c].reserve(rows.size());
      for (size_t r : rows) {
        DEEPAQP_CHECK_LT(r, num_rows_);
        out.cat_columns_[c].push_back(cat_columns_[c][r]);
      }
      out.dicts_[c] = dicts_[c];
      out.declared_cardinality_[c] =
          std::max(declared_cardinality_[c], Cardinality(c));
    } else {
      out.num_columns_[c].reserve(rows.size());
      for (size_t r : rows) {
        out.num_columns_[c].push_back(num_columns_[c][r]);
      }
    }
  }
  out.num_rows_ = rows.size();
  return out;
}

Table Table::SampleRows(size_t k, util::Rng& rng) const {
  DEEPAQP_CHECK_LE(k, num_rows_);
  return Gather(rng.SampleWithoutReplacement(num_rows_, k));
}

void Table::AppendUninitializedRows(size_t n) {
  const size_t new_rows = num_rows_ + n;
  for (size_t c = 0; c < schema_.num_attributes(); ++c) {
    // FirstTouchVector resize default-initializes: the new cells are
    // allocated but not written, deferring page placement to the writer.
    if (schema_.IsCategorical(c)) {
      cat_columns_[c].resize(new_rows);
    } else {
      num_columns_[c].resize(new_rows);
    }
  }
  num_rows_ = new_rows;
}

void Table::AssignRows(size_t dst_begin, const Table& src) {
  DEEPAQP_CHECK(schema_ == src.schema_);
  DEEPAQP_CHECK_LE(dst_begin + src.num_rows_, num_rows_);
  for (size_t c = 0; c < schema_.num_attributes(); ++c) {
    if (schema_.IsCategorical(c)) {
      std::copy(src.cat_columns_[c].begin(), src.cat_columns_[c].end(),
                cat_columns_[c].begin() + static_cast<ptrdiff_t>(dst_begin));
    } else {
      std::copy(src.num_columns_[c].begin(), src.num_columns_[c].end(),
                num_columns_[c].begin() + static_cast<ptrdiff_t>(dst_begin));
    }
  }
}

util::Status Table::Append(const Table& other) {
  if (!(schema_ == other.schema_)) {
    return util::Status::InvalidArgument("Table::Append: schema mismatch");
  }
  const size_t m = schema_.num_attributes();
  // Codes are copied verbatim when either side has no labels (both index
  // one bare-code domain) or both hold the same labels (generated chunks
  // and pools all carry the encoder's). Only differing dictionaries remap
  // through labels, which needs every source code to have one; check that
  // before anything is written so a rejected append leaves *this intact.
  std::vector<uint8_t> remap(m, 0);
  for (size_t c = 0; c < m; ++c) {
    if (!schema_.IsCategorical(c)) continue;
    const Dictionary& src = other.dicts_[c];
    const Dictionary& dst = dicts_[c];
    if (src.size() == 0 || dst.size() == 0 || src.labels() == dst.labels()) {
      continue;
    }
    for (int32_t code : other.cat_columns_[c]) {
      if (code >= src.size()) {
        return util::Status::InvalidArgument(
            "Table::Append: code " + std::to_string(code) + " of column '" +
            schema_.attribute(c).name + "' has no label to remap (" +
            std::to_string(src.size()) + " labels)");
      }
    }
    remap[c] = 1;
  }
  for (size_t c = 0; c < m; ++c) {
    if (schema_.IsCategorical(c)) {
      if (remap[c]) {
        const Dictionary& src = other.dicts_[c];
        for (int32_t code : other.cat_columns_[c]) {
          cat_columns_[c].push_back(dicts_[c].GetOrAdd(src.LabelOf(code)));
        }
      } else {
        cat_columns_[c].insert(cat_columns_[c].end(),
                               other.cat_columns_[c].begin(),
                               other.cat_columns_[c].end());
      }
      declared_cardinality_[c] =
          std::max(declared_cardinality_[c], other.Cardinality(c));
    } else {
      num_columns_[c].insert(num_columns_[c].end(),
                             other.num_columns_[c].begin(),
                             other.num_columns_[c].end());
    }
  }
  num_rows_ += other.num_rows_;
  return util::Status::OK();
}

Table Table::Project(const std::vector<size_t>& attrs) const {
  Schema schema;
  for (size_t a : attrs) {
    DEEPAQP_CHECK_LT(a, schema_.num_attributes());
    DEEPAQP_CHECK(
        schema.AddAttribute(schema_.attribute(a).name,
                            schema_.attribute(a).type)
            .ok());
  }
  Table out(schema);
  for (size_t i = 0; i < attrs.size(); ++i) {
    const size_t a = attrs[i];
    if (schema_.IsCategorical(a)) {
      out.cat_columns_[i] = cat_columns_[a];
      out.dicts_[i] = dicts_[a];
      out.declared_cardinality_[i] = Cardinality(a);
    } else {
      out.num_columns_[i] = num_columns_[a];
    }
  }
  out.num_rows_ = num_rows_;
  return out;
}

int32_t* Table::MutableCatData(size_t col) {
  DEEPAQP_CHECK(schema_.IsCategorical(col));
  return cat_columns_[col].data();
}

double* Table::MutableNumData(size_t col) {
  DEEPAQP_CHECK(schema_.IsNumeric(col));
  return num_columns_[col].data();
}

const CatVector& Table::CatColumn(size_t col) const {
  DEEPAQP_CHECK(schema_.IsCategorical(col));
  return cat_columns_[col];
}

const NumVector& Table::NumColumn(size_t col) const {
  DEEPAQP_CHECK(schema_.IsNumeric(col));
  return num_columns_[col];
}

}  // namespace deepaqp::relation
