#ifndef DEEPAQP_RELATION_TABLE_H_
#define DEEPAQP_RELATION_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/aligned_buffer.h"
#include "relation/dictionary.h"
#include "relation/schema.h"
#include "util/rng.h"
#include "util/status.h"

namespace deepaqp::relation {

/// Column storage: aligned, huge-page-hinted, and first-touch-deferred, so
/// appending uninitialized rows and filling them in parallel (AssignRows
/// under ParallelFor) writes each page once, from the lane that fills it.
using CatVector = nn::FirstTouchVector<int32_t>;
using NumVector = nn::FirstTouchVector<double>;

/// One cell value: a categorical code or a numeric value, tagged by the
/// column's schema type (the struct itself is passive; readers consult the
/// schema to know which member is meaningful).
struct Datum {
  int32_t cat = 0;
  double num = 0.0;

  static Datum Categorical(int32_t code) { return Datum{code, 0.0}; }
  static Datum Numeric(double value) { return Datum{0, value}; }
};

/// In-memory columnar relation. Categorical columns hold dense int32 codes
/// (optionally backed by a label Dictionary); numeric columns hold doubles.
/// This is the substrate every other module operates on: generators fill it,
/// encoders read it, the AQP executor scans it, and model samplers emit
/// synthetic Tables with the same schema.
class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_attributes() const { return schema_.num_attributes(); }

  /// Appends one row; `row` must have one Datum per attribute. Categorical
  /// codes must be non-negative.
  void AppendRow(const std::vector<Datum>& row);

  /// Cell accessors. Column type must match the schema.
  int32_t CatCode(size_t row, size_t col) const;
  double NumValue(size_t row, size_t col) const;

  /// Uniform cell accessor: categorical codes are returned as doubles so
  /// predicates can compare either type against a constant.
  double CellAsDouble(size_t row, size_t col) const;

  /// Mutable dictionary of a categorical column (labels are optional; tables
  /// built from generators may use bare codes).
  Dictionary& dict(size_t col);
  const Dictionary& dict(size_t col) const;

  /// Registers `label` in column `col`'s dictionary and returns its code.
  int32_t InternLabel(size_t col, const std::string& label);

  /// Number of distinct codes that may appear in categorical column `col`:
  /// max over (declared cardinality, observed max code + 1, dictionary size).
  int32_t Cardinality(size_t col) const;

  /// Declares the domain size of a categorical column up front (e.g., the
  /// generator knows the domain even if not all values appear).
  void DeclareCardinality(size_t col, int32_t cardinality);

  /// Observed [min, max] of numeric column `col`; {0, 0} when empty.
  std::pair<double, double> NumericRange(size_t col) const;

  /// Returns a new table with the given rows (in order, duplicates allowed).
  Table Gather(const std::vector<size_t>& rows) const;

  /// Uniform random sample of `k` rows without replacement (k <= num_rows).
  Table SampleRows(size_t k, util::Rng& rng) const;

  /// Appends all rows of `other`; schemas must match. Categorical codes are
  /// copied verbatim when the two columns hold the same labels (or either
  /// has none); otherwise each code is remapped through its label, and a
  /// source code without a label is InvalidArgument (nothing is appended).
  util::Status Append(const Table& other);

  /// Appends `n` rows whose cells are *uninitialized* (indeterminate until
  /// overwritten). The new slots are allocated but not written, so the
  /// first touch — and with it the NUMA page placement — happens on
  /// whichever thread later fills each slice via AssignRows. Callers must
  /// fully overwrite the new rows before any read.
  void AppendUninitializedRows(size_t n);

  /// Overwrites rows [dst_begin, dst_begin + src.num_rows()) with the rows
  /// of `src`. Schemas must match and both tables must index categorical
  /// codes in the same domain (e.g. copies of one empty prototype table, as
  /// the chunked sample generator produces) — codes are copied verbatim,
  /// without the dictionary remap Append performs. Destination rows must
  /// already exist. Safe to call concurrently for disjoint destination
  /// ranges: only column cells in the range are written.
  void AssignRows(size_t dst_begin, const Table& src);

  /// Returns a new table containing only the given attributes (in the given
  /// order), with all rows. Dictionaries and declared cardinalities are
  /// carried over.
  Table Project(const std::vector<size_t>& attrs) const;

  /// Direct column access for hot paths (encoders, executors).
  const CatVector& CatColumn(size_t col) const;
  const NumVector& NumColumn(size_t col) const;

  /// Writable cells of a column, for filling rows added by
  /// AppendUninitializedRows (the tuple decoder writes each generated cell
  /// in place). Categorical codes written this way must be non-negative.
  int32_t* MutableCatData(size_t col);
  double* MutableNumData(size_t col);

 private:
  Schema schema_;
  size_t num_rows_ = 0;
  // Parallel arrays, one entry per attribute; only the one matching the
  // schema type is populated.
  std::vector<CatVector> cat_columns_;
  std::vector<NumVector> num_columns_;
  std::vector<Dictionary> dicts_;
  std::vector<int32_t> declared_cardinality_;
};

}  // namespace deepaqp::relation

#endif  // DEEPAQP_RELATION_TABLE_H_
