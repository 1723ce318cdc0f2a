#include "encoding/tuple_encoder.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "util/logging.h"

namespace deepaqp::encoding {

using relation::Table;

const char* EncodingKindName(EncodingKind kind) {
  switch (kind) {
    case EncodingKind::kOneHot:
      return "one-hot";
    case EncodingKind::kBinary:
      return "binary";
    case EncodingKind::kInteger:
      return "integer";
  }
  return "?";
}

namespace {

size_t WidthFor(EncodingKind kind, int32_t cardinality) {
  switch (kind) {
    case EncodingKind::kOneHot:
      return static_cast<size_t>(cardinality);
    case EncodingKind::kBinary: {
      size_t bits = 1;
      while ((int64_t{1} << bits) < cardinality) ++bits;
      return bits;
    }
    case EncodingKind::kInteger:
      return 1;
  }
  return 0;
}

}  // namespace

util::Result<TupleEncoder> TupleEncoder::Fit(const Table& table,
                                             const EncoderOptions& options) {
  if (table.num_rows() == 0) {
    return util::Status::InvalidArgument("cannot fit encoder on empty table");
  }
  if (options.numeric_bins < 2) {
    return util::Status::InvalidArgument("numeric_bins must be >= 2");
  }
  TupleEncoder enc;
  enc.schema_ = table.schema();
  enc.options_ = options;

  size_t offset = 0;
  for (size_t c = 0; c < enc.schema_.num_attributes(); ++c) {
    AttrLayout layout;
    layout.offset = offset;
    if (enc.schema_.IsCategorical(c)) {
      layout.is_numeric = false;
      layout.cardinality = std::max<int32_t>(1, table.Cardinality(c));
      layout.labels = table.dict(c).labels();
    } else {
      layout.is_numeric = true;
      // Equi-depth bin edges from the empirical distribution.
      const auto& col = table.NumColumn(c);
      std::vector<double> values(col.begin(), col.end());
      std::sort(values.begin(), values.end());
      const size_t n = values.size();
      std::vector<double> edges;
      edges.push_back(values.front());
      for (int b = 1; b < options.numeric_bins; ++b) {
        const size_t idx = b * n / options.numeric_bins;
        const double e = values[std::min(idx, n - 1)];
        if (e > edges.back()) edges.push_back(e);
      }
      if (values.back() > edges.back()) {
        edges.push_back(values.back());
      } else {
        // Degenerate constant column: one bin covering the single value.
        edges.push_back(edges.back());
      }
      layout.bin_edges = std::move(edges);
      layout.cardinality =
          std::max<int32_t>(1,
                            static_cast<int32_t>(layout.bin_edges.size()) - 1);
    }
    layout.width = WidthFor(options.kind, layout.cardinality);
    offset += layout.width;
    enc.layout_.push_back(std::move(layout));
  }
  enc.encoded_dim_ = offset;
  return enc;
}

void TupleEncoder::EncodeCode(const AttrLayout& layout, int32_t code,
                              float* out) const {
  code = std::clamp(code, 0, layout.cardinality - 1);
  float* dst = out + layout.offset;
  switch (options_.kind) {
    case EncodingKind::kOneHot:
      dst[code] = 1.0f;
      break;
    case EncodingKind::kBinary:
      for (size_t b = 0; b < layout.width; ++b) {
        dst[b] = static_cast<float>((code >> b) & 1);
      }
      break;
    case EncodingKind::kInteger:
      dst[0] = layout.cardinality <= 1
                   ? 0.0f
                   : static_cast<float>(code) /
                         static_cast<float>(layout.cardinality - 1);
      break;
  }
}

int32_t TupleEncoder::BinOf(const AttrLayout& layout, double value) const {
  const auto& e = layout.bin_edges;
  // First interior edge strictly above `value` delimits the bin.
  const auto it = std::upper_bound(e.begin() + 1, e.end() - 1, value);
  return static_cast<int32_t>(it - (e.begin() + 1));
}

double TupleEncoder::ValueOfBin(const AttrLayout& layout, int32_t bin,
                                util::Rng& rng) const {
  bin = std::clamp(bin, 0, layout.cardinality - 1);
  const double lo = layout.bin_edges[bin];
  const double hi = layout.bin_edges[bin + 1];
  return lo == hi ? lo : rng.Uniform(lo, hi);
}

nn::Matrix TupleEncoder::EncodeRows(const Table& table,
                                    const std::vector<size_t>& rows) const {
  DEEPAQP_CHECK(table.schema() == schema_);
  nn::Matrix out(rows.size(), encoded_dim_);
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t r = rows[i];
    float* dst = out.Row(i);
    for (size_t c = 0; c < schema_.num_attributes(); ++c) {
      const AttrLayout& layout = layout_[c];
      const int32_t code = layout.is_numeric
                               ? BinOf(layout, table.NumValue(r, c))
                               : table.CatCode(r, c);
      EncodeCode(layout, code, dst);
    }
  }
  return out;
}

nn::Matrix TupleEncoder::EncodeAll(const Table& table) const {
  std::vector<size_t> rows(table.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return EncodeRows(table, rows);
}

std::vector<int32_t> TupleEncoder::DecodeBitsToCodes(
    const float* bits) const {
  std::vector<int32_t> codes(layout_.size());
  for (size_t c = 0; c < layout_.size(); ++c) {
    const AttrLayout& layout = layout_[c];
    const float* src = bits + layout.offset;
    int32_t code = 0;
    switch (options_.kind) {
      case EncodingKind::kOneHot: {
        size_t best = 0;
        for (size_t s = 1; s < layout.width; ++s) {
          if (src[s] > src[best]) best = s;
        }
        code = static_cast<int32_t>(best);
        break;
      }
      case EncodingKind::kBinary:
        for (size_t b = 0; b < layout.width; ++b) {
          if (src[b] > 0.5f) code |= (1 << b);
        }
        break;
      case EncodingKind::kInteger:
        code = static_cast<int32_t>(
            std::lround(static_cast<double>(src[0]) *
                        (layout.cardinality - 1)));
        break;
    }
    codes[c] = std::clamp(code, 0, layout.cardinality - 1);
  }
  return codes;
}

namespace {

float SigmoidF(float z) { return 1.0f / (1.0f + std::exp(-z)); }

/// One stochastic decode of an attribute from its slot probabilities `p`.
int32_t DrawCode(EncodingKind kind, const TupleEncoder::AttrLayout& layout,
                 const float* p, util::Rng& rng) {
  switch (kind) {
    case EncodingKind::kOneHot: {
      // Sample each slot; choose uniformly among the set slots. All-zero
      // draws fall back to the most probable slot.
      int32_t chosen = -1;
      int set_count = 0;
      for (size_t s = 0; s < layout.width; ++s) {
        if (rng.Bernoulli(p[s])) {
          ++set_count;
          if (rng.NextIndex(static_cast<uint64_t>(set_count)) == 0) {
            chosen = static_cast<int32_t>(s);
          }
        }
      }
      if (chosen >= 0) return chosen;
      size_t best = 0;
      for (size_t s = 1; s < layout.width; ++s) {
        if (p[s] > p[best]) best = s;
      }
      return static_cast<int32_t>(best);
    }
    case EncodingKind::kBinary: {
      int32_t code = 0;
      for (size_t b = 0; b < layout.width; ++b) {
        code |= static_cast<int32_t>(rng.Bernoulli(p[b])) << b;
      }
      // Out-of-domain codes are the "invalid tuple" failure mode; clamp.
      return std::min(code, layout.cardinality - 1);
    }
    case EncodingKind::kInteger: {
      const double v =
          std::clamp<double>(p[0] + rng.Gaussian(0.0, 0.02), 0.0, 1.0);
      return static_cast<int32_t>(std::lround(v * (layout.cardinality - 1)));
    }
  }
  return 0;
}

}  // namespace

relation::Table TupleEncoder::DecodeLogits(const nn::Matrix& logits,
                                           util::Rng& rng) const {
  DEEPAQP_CHECK_EQ(logits.cols(), encoded_dim_);
  const size_t rows = logits.rows();
  const size_t m = schema_.num_attributes();
  Table out(schema_);
  out.AppendUninitializedRows(rows);
  // Synthetic tables advertise the training-time domain sizes and carry
  // the training-time labels, so clients see readable values. Every cell is
  // written in place below.
  std::vector<int32_t*> cat(m, nullptr);
  std::vector<double*> num(m, nullptr);
  for (size_t c = 0; c < m; ++c) {
    if (layout_[c].is_numeric) {
      num[c] = out.MutableNumData(c);
    } else {
      out.DeclareCardinality(c, layout_[c].cardinality);
      for (const std::string& label : layout_[c].labels) {
        out.InternLabel(c, label);
      }
      cat[c] = out.MutableCatData(c);
    }
  }

  std::vector<float> probs(encoded_dim_);
  for (size_t r = 0; r < rows; ++r) {
    const float* z = logits.Row(r);
    for (size_t i = 0; i < encoded_dim_; ++i) probs[i] = SigmoidF(z[i]);

    for (size_t c = 0; c < m; ++c) {
      const AttrLayout& layout = layout_[c];
      const int32_t code = DrawCode(options_.kind, layout,
                                    probs.data() + layout.offset, rng);
      if (layout.is_numeric) {
        num[c][r] = ValueOfBin(layout, code, rng);
      } else {
        cat[c][r] = std::clamp(code, 0, layout.cardinality - 1);
      }
    }
  }
  return out;
}

/// Bump when the serialized layout below changes; Deserialize rejects
/// mismatches with a diagnosable error instead of misparsing the layout.
static constexpr uint32_t kEncoderSchemaVersion = 1;

void TupleEncoder::Serialize(util::ByteWriter& w) const {
  w.WriteU32(kEncoderSchemaVersion);
  w.WriteU8(static_cast<uint8_t>(options_.kind));
  w.WriteI32(options_.numeric_bins);
  w.WriteU64(schema_.num_attributes());
  for (size_t c = 0; c < schema_.num_attributes(); ++c) {
    w.WriteString(schema_.attribute(c).name);
    w.WriteU8(schema_.IsCategorical(c) ? 0 : 1);
    const AttrLayout& layout = layout_[c];
    w.WriteU64(layout.offset);
    w.WriteU64(layout.width);
    w.WriteI32(layout.cardinality);
    w.WriteF64Vector(layout.bin_edges);
    w.WriteU64(layout.labels.size());
    for (const std::string& label : layout.labels) w.WriteString(label);
  }
}

util::Result<TupleEncoder> TupleEncoder::Deserialize(util::ByteReader& r) {
  TupleEncoder enc;
  DEEPAQP_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kEncoderSchemaVersion) {
    return util::Status::InvalidArgument(
        "unsupported tuple-encoder schema version " +
        std::to_string(version) + " (expected " +
        std::to_string(kEncoderSchemaVersion) + ")");
  }
  DEEPAQP_ASSIGN_OR_RETURN(uint8_t kind, r.ReadU8());
  if (kind > static_cast<uint8_t>(EncodingKind::kInteger)) {
    return util::Status::InvalidArgument("bad encoding kind");
  }
  enc.options_.kind = static_cast<EncodingKind>(kind);
  DEEPAQP_ASSIGN_OR_RETURN(enc.options_.numeric_bins, r.ReadI32());
  DEEPAQP_ASSIGN_OR_RETURN(uint64_t m, r.ReadU64());
  size_t offset = 0;
  for (uint64_t c = 0; c < m; ++c) {
    DEEPAQP_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    DEEPAQP_ASSIGN_OR_RETURN(uint8_t is_numeric, r.ReadU8());
    DEEPAQP_RETURN_IF_ERROR(enc.schema_.AddAttribute(
        name, is_numeric ? relation::AttrType::kNumeric
                         : relation::AttrType::kCategorical));
    AttrLayout layout;
    DEEPAQP_ASSIGN_OR_RETURN(uint64_t off, r.ReadU64());
    DEEPAQP_ASSIGN_OR_RETURN(uint64_t width, r.ReadU64());
    layout.offset = off;
    layout.width = width;
    DEEPAQP_ASSIGN_OR_RETURN(layout.cardinality, r.ReadI32());
    DEEPAQP_ASSIGN_OR_RETURN(layout.bin_edges, r.ReadF64Vector());
    DEEPAQP_ASSIGN_OR_RETURN(uint64_t num_labels, r.ReadU64());
    for (uint64_t l = 0; l < num_labels; ++l) {
      DEEPAQP_ASSIGN_OR_RETURN(std::string label, r.ReadString());
      layout.labels.push_back(std::move(label));
    }
    layout.is_numeric = is_numeric != 0;
    if (layout.offset != offset) {
      return util::Status::InvalidArgument("encoder layout corrupt");
    }
    offset += layout.width;
    enc.layout_.push_back(std::move(layout));
  }
  enc.encoded_dim_ = offset;
  return enc;
}

}  // namespace deepaqp::encoding
