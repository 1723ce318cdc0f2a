#include "decode_reference.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

namespace deepaqp::encoding {

namespace {

float SigmoidF(float z) { return 1.0f / (1.0f + std::exp(-z)); }

double ValueOfBin(const TupleEncoder::AttrLayout& layout, int32_t bin,
                  util::Rng& rng) {
  bin = std::clamp(bin, 0, layout.cardinality - 1);
  const double lo = layout.bin_edges[bin];
  const double hi = layout.bin_edges[bin + 1];
  return lo == hi ? lo : rng.Uniform(lo, hi);
}

}  // namespace

relation::Table ReferenceDecodeLogits(const TupleEncoder& encoder,
                                      const nn::Matrix& logits,
                                      const DecodeOptions& options,
                                      util::Rng& rng) {
  using relation::Datum;
  const relation::Schema& schema = encoder.schema();
  relation::Table out(schema);
  std::vector<float> probs(encoder.encoded_dim());
  std::vector<Datum> row(schema.num_attributes());

  // Per-draw stochastic decode of one attribute from probabilities.
  auto draw_code = [&](const TupleEncoder::AttrLayout& layout,
                       const float* p) -> int32_t {
    switch (encoder.kind()) {
      case EncodingKind::kOneHot: {
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
          if (rng.Bernoulli(p[b])) code |= (1 << b);
        }
        return std::min(code, layout.cardinality - 1);
      }
      case EncodingKind::kInteger: {
        const double v = std::clamp<double>(
            p[0] + rng.Gaussian(0.0, 0.02), 0.0, 1.0);
        return static_cast<int32_t>(
            std::lround(v * (layout.cardinality - 1)));
      }
    }
    return 0;
  };

  for (size_t r = 0; r < logits.rows(); ++r) {
    const float* z = logits.Row(r);
    for (size_t i = 0; i < probs.size(); ++i) probs[i] = SigmoidF(z[i]);

    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      const TupleEncoder::AttrLayout& layout = encoder.layout()[c];
      const float* p = probs.data() + layout.offset;
      int32_t code = 0;
      if (options.strategy == DecodeStrategy::kNaive) {
        code = draw_code(layout, p);
      } else {
        std::unordered_map<int32_t, int> counts;
        for (int d = 0; d < std::max(1, options.draws); ++d) {
          ++counts[draw_code(layout, p)];
        }
        if (options.strategy == DecodeStrategy::kMaxVote) {
          int best_count = -1;
          for (const auto& [value, count] : counts) {
            if (count > best_count ||
                (count == best_count && value < code)) {
              best_count = count;
              code = value;
            }
          }
        } else {  // kWeightedRandom
          int total = 0;
          for (const auto& [value, count] : counts) total += count;
          int64_t pick = static_cast<int64_t>(
              rng.NextIndex(static_cast<uint64_t>(total)));
          for (const auto& [value, count] : counts) {
            pick -= count;
            if (pick < 0) {
              code = value;
              break;
            }
          }
        }
      }
      if (layout.is_numeric) {
        row[c] = Datum::Numeric(ValueOfBin(layout, code, rng));
      } else {
        row[c] = Datum::Categorical(
            std::clamp(code, 0, layout.cardinality - 1));
      }
    }
    out.AppendRow(row);
  }
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    if (schema.IsCategorical(c)) {
      out.DeclareCardinality(c, encoder.layout()[c].cardinality);
      for (const std::string& label : encoder.layout()[c].labels) {
        out.InternLabel(c, label);
      }
    }
  }
  return out;
}

}  // namespace deepaqp::encoding
