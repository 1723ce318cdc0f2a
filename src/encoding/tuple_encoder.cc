#include "encoding/tuple_encoder.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

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

/// A caller-owned buffer that BumpAllocator hands out front to back.
struct BumpArena {
  std::byte* begin;
  std::byte* next;
  std::byte* end;

  bool Owns(const void* p) const {
    const auto addr = reinterpret_cast<uintptr_t>(p);
    return addr >= reinterpret_cast<uintptr_t>(begin) &&
           addr < reinterpret_cast<uintptr_t>(end);
  }
};

/// Allocator for one short-lived tally map: bump allocation inside a
/// BumpArena, where deallocation is a no-op, and operator new past its end.
/// Unlike a std::pmr resource it needs no virtual call per node, which is
/// most of what a pmr map's allocations cost at this size.
template <class T>
class BumpAllocator {
 public:
  using value_type = T;

  explicit BumpAllocator(BumpArena* arena) : arena_(arena) {}
  template <class U>
  BumpAllocator(const BumpAllocator<U>& other) : arena_(other.arena()) {}

  T* allocate(size_t n) {
    void* at = arena_->next;
    size_t space = static_cast<size_t>(arena_->end - arena_->next);
    if (n <= space / sizeof(T) &&
        std::align(alignof(T), n * sizeof(T), at, space) != nullptr) {
      arena_->next = static_cast<std::byte*>(at) + n * sizeof(T);
      return static_cast<T*>(at);
    }
    return std::allocator<T>().allocate(n);
  }

  void deallocate(T* p, size_t n) {
    if (!arena_->Owns(p)) std::allocator<T>().deallocate(p, n);
  }

  BumpArena* arena() const { return arena_; }
  template <class U>
  bool operator==(const BumpAllocator<U>& other) const {
    return arena_ == other.arena();
  }

 private:
  BumpArena* arena_;
};

/// One attribute's aggregated draws, tallied once all are in: first_[i] is
/// the index of the first draw equal to draw i, and count_[f] counts the
/// draws whose first is f. The scans have fixed trip counts, so they run
/// without data-dependent branches; their n^2 / 2 comparisons stay small
/// because draws are capped at kMaxDecodeDraws (the library uses 1-32).
class Tally {
 public:
  explicit Tally(size_t draws)
      : drawn_(draws), first_(draws), count_(draws) {}

  /// Slot for draw `d`; fill all of them, then call Count().
  int32_t& draw(size_t d) { return drawn_[d]; }

  void Count() {
    const size_t n = drawn_.size();
    distinct_ = 0;
    for (size_t i = 0; i < n; ++i) {
      size_t first = i;
      for (size_t j = i; j-- > 0;) first = drawn_[j] == drawn_[i] ? j : first;
      first_[i] = first;
      count_[i] = 0;
      distinct_ += first == i;
    }
    for (size_t i = 0; i < n; ++i) ++count_[first_[i]];
  }

  /// Max-vote: the most frequent code, ties going to the smallest. No
  /// iteration order enters this answer.
  int32_t MostFrequent() const {
    size_t best = 0;
    for (size_t i = 1; i < drawn_.size(); ++i) {
      if (first_[i] == i &&
          (count_[i] > count_[best] ||
           (count_[i] == count_[best] && drawn_[i] < drawn_[best]))) {
        best = i;
      }
    }
    return drawn_[best];
  }

  /// Weighted-random pick: code v with probability count(v) / n, via one
  /// NextIndex(n). Which code an index lands on follows the iteration
  /// order of a std::unordered_map tally, and byte-identical pools pin that
  /// order (DESIGN.md Sec. 18). The map's layout depends only on the order
  /// in which new keys arrive, so inserting each distinct code once, in
  /// first-draw order, reproduces a draw-by-draw ++counts[code]; the same
  /// container over a stack buffer does it without heap allocations.
  int32_t WeightedPick(util::Rng& rng) const {
    int64_t pick = static_cast<int64_t>(rng.NextIndex(drawn_.size()));
    // One distinct code takes every pick; the draw above still happens, so
    // the rng stream stays aligned with the tally path.
    if (distinct_ == 1) return drawn_[0];
    using Allocator = BumpAllocator<std::pair<const int32_t, int>>;
    alignas(std::max_align_t) std::byte buffer[1024];
    BumpArena arena{buffer, buffer, buffer + sizeof(buffer)};
    std::unordered_map<int32_t, int, std::hash<int32_t>,
                       std::equal_to<int32_t>, Allocator>
        counts{Allocator(&arena)};
    for (size_t i = 0; i < drawn_.size(); ++i) {
      if (first_[i] == i) counts[drawn_[i]] = count_[i];
    }
    for (const auto& [value, count] : counts) {
      pick -= count;
      if (pick < 0) return value;
    }
    return 0;  // unreachable: the counts sum to n > pick
  }

 private:
  std::vector<int32_t> drawn_;
  std::vector<size_t> first_;
  std::vector<int> count_;
  size_t distinct_ = 0;
};

}  // namespace

relation::Table TupleEncoder::DecodeLogits(const nn::Matrix& logits,
                                           const DecodeOptions& options,
                                           util::Rng& rng) const {
  DEEPAQP_CHECK_EQ(logits.cols(), encoded_dim_);
  DEEPAQP_CHECK_LE(options.draws, kMaxDecodeDraws);
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

  // Aggregated strategies decode each attribute `draws` times (Sec. IV-E).
  const bool aggregate = options.strategy != DecodeStrategy::kNaive;
  const size_t draws = aggregate ? std::max(1, options.draws) : 1;
  std::vector<float> probs(encoded_dim_);
  Tally tally(draws);
  for (size_t r = 0; r < rows; ++r) {
    const float* z = logits.Row(r);
    for (size_t i = 0; i < encoded_dim_; ++i) probs[i] = SigmoidF(z[i]);

    for (size_t c = 0; c < m; ++c) {
      const AttrLayout& layout = layout_[c];
      const float* p = probs.data() + layout.offset;
      int32_t code = 0;
      if (!aggregate) {
        code = DrawCode(options_.kind, layout, p, rng);
      } else {
        for (size_t d = 0; d < draws; ++d) {
          tally.draw(d) = DrawCode(options_.kind, layout, p, rng);
        }
        tally.Count();
        code = options.strategy == DecodeStrategy::kMaxVote
                   ? tally.MostFrequent()
                   : tally.WeightedPick(rng);
      }
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
