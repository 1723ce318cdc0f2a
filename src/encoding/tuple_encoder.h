#ifndef DEEPAQP_ENCODING_TUPLE_ENCODER_H_
#define DEEPAQP_ENCODING_TUPLE_ENCODER_H_

#include <cstdint>
#include <vector>

#include "nn/matrix.h"
#include "relation/table.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/status.h"

namespace deepaqp::encoding {

/// Input encodings studied in the paper (Sec. IV-A / IV-E and Fig. 6).
enum class EncodingKind {
  /// One slot per domain value; value v sets slot v to 1.
  kOneHot,
  /// ceil(log2 |Dom|) bits holding the zero-indexed position in binary —
  /// the paper's recommended dense encoding.
  kBinary,
  /// A single slot holding the position normalized into [0, 1].
  kInteger,
};

const char* EncodingKindName(EncodingKind kind);

/// Holds nothing: every decode is one draw per attribute. It and the
/// DecodeLogits overload that takes it exist because the repository
/// benchmark (aqpbench/) calls that overload with VaeAqpOptions::decode.
struct DecodeOptions {};

struct EncoderOptions {
  EncodingKind kind = EncodingKind::kBinary;
  /// Numeric attributes are discretized into this many equi-depth bins
  /// before categorical encoding; decoded values are drawn uniformly within
  /// the original bin's value range.
  int numeric_bins = 32;
};

/// Maps tuples of a fixed relational schema to fixed-width float vectors
/// consumable by the VAE/GAN substrate, and decodes network outputs
/// (Bernoulli logits) back to tuples. Fit once on the training relation;
/// the fitted state (bin edges, cardinalities, layout) serializes with the
/// model so a client can decode samples without the data.
class TupleEncoder {
 public:
  /// Creates an unfitted encoder (encoded_dim() == 0); assign from Fit() or
  /// Deserialize() before use.
  TupleEncoder() = default;

  /// Layout of one attribute inside the encoded vector.
  struct AttrLayout {
    size_t offset = 0;
    size_t width = 0;
    /// Discrete domain size being encoded (categorical cardinality, or
    /// number of numeric bins).
    int32_t cardinality = 0;
    bool is_numeric = false;
    /// Bin edges (cardinality + 1 entries) for numeric attributes.
    std::vector<double> bin_edges;
    /// Categorical labels captured at Fit time (may be shorter than
    /// cardinality when the training table used bare codes). Shipped with
    /// the model so decoded tables are human-readable on the client.
    std::vector<std::string> labels;
  };

  /// Learns the layout from `table`: categorical cardinalities and
  /// equi-depth numeric bin edges. The table must be non-empty.
  static util::Result<TupleEncoder> Fit(const relation::Table& table,
                                        const EncoderOptions& options);

  /// Total encoded dimensionality d (paper: sum of per-attribute widths).
  size_t encoded_dim() const { return encoded_dim_; }

  const relation::Schema& schema() const { return schema_; }
  EncodingKind kind() const { return options_.kind; }
  const std::vector<AttrLayout>& layout() const { return layout_; }

  /// Encodes the given rows into a (rows x encoded_dim) matrix of values in
  /// [0, 1].
  nn::Matrix EncodeRows(const relation::Table& table,
                        const std::vector<size_t>& rows) const;

  /// Encodes every row of `table`.
  nn::Matrix EncodeAll(const relation::Table& table) const;

  /// Decodes a batch of decoder-output logits into tuples of the original
  /// schema: one stochastic draw per attribute from the Bernoulli outputs
  /// (Sec. IV-E's naive decode), with an invalid code (a binary code past
  /// the domain) clamped into the domain. Rows, then attributes, consume
  /// `rng` in a fixed order, which generated pools depend on byte for byte
  /// (DESIGN.md Sec. 18).
  relation::Table DecodeLogits(const nn::Matrix& logits,
                               util::Rng& rng) const;

  /// The same decode; DecodeOptions holds nothing (see above).
  relation::Table DecodeLogits(const nn::Matrix& logits,
                               const DecodeOptions& /*options*/,
                               util::Rng& rng) const {
    return DecodeLogits(logits, rng);
  }

  /// Decodes one already-sampled binary activation row into per-attribute
  /// codes (exposed for tests; `bits` has encoded_dim entries in [0,1]).
  std::vector<int32_t> DecodeBitsToCodes(const float* bits) const;

  void Serialize(util::ByteWriter& w) const;
  static util::Result<TupleEncoder> Deserialize(util::ByteReader& r);

 private:
  /// Encodes a single discrete code into `out + layout.offset`.
  void EncodeCode(const AttrLayout& layout, int32_t code, float* out) const;

  /// Numeric value -> bin index via the fitted equi-depth edges.
  int32_t BinOf(const AttrLayout& layout, double value) const;

  /// Bin index -> representative value (uniform within the bin).
  double ValueOfBin(const AttrLayout& layout, int32_t bin,
                    util::Rng& rng) const;

  relation::Schema schema_;
  EncoderOptions options_;
  std::vector<AttrLayout> layout_;
  size_t encoded_dim_ = 0;
};

}  // namespace deepaqp::encoding

#endif  // DEEPAQP_ENCODING_TUPLE_ENCODER_H_
