#ifndef DEEPAQP_AQP_ENGINE_H_
#define DEEPAQP_AQP_ENGINE_H_

#include <cstdint>
#include <vector>

#include "aqp/query.h"
#include "relation/table.h"
#include "util/status.h"

namespace deepaqp::aqp {

/// The query engine behind ExecuteExact, EstimateFromSample, Selectivity
/// and the client's query cache: per-condition selection-vector kernels
/// over the columnar Table (tight loops producing bitmaps, AND/OR-combined
/// per Predicate), fused filter+aggregate passes, and dense array-indexed
/// group accumulators. Every group's measure contributions accumulate in
/// ascending row order, so results are bit-identical at every `--threads`
/// setting and to the row-at-a-time reference loops the tests keep
/// (tests/engine_reference.h). There is one engine; run reports print its
/// name.
enum class EngineKind { kVector };

inline EngineKind ActiveEngine() { return EngineKind::kVector; }

inline const char* EngineName(EngineKind) { return "vector"; }

/// Row-selection bitmap: bit r is set iff row r of the scanned table
/// matches a predicate. Stored as 64-bit words so combining conditions and
/// counting matches are word-wide operations.
class SelectionVector {
 public:
  static constexpr size_t kWordBits = 64;

  size_t size() const { return size_; }

  /// Grows (or shrinks) to `n` bits; existing bits below `n` are preserved,
  /// new bits are zero.
  void Resize(size_t n);

  bool Test(size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  void Set(size_t i) { words_[i / kWordBits] |= uint64_t{1} << (i % kWordBits); }

  /// Number of set bits in [begin, end).
  size_t CountRange(size_t begin, size_t end) const;

  const std::vector<uint64_t>& words() const { return words_; }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

/// Evaluates `pred` over rows [begin, end) of `table` into bits
/// [begin, end) of `sel` (resized to `end`; bits below `begin` are
/// preserved, which is what the append-only client cache relies on). Each
/// condition runs as one tight pass over its CatColumn/NumColumn — the
/// comparison semantics are exactly Condition::Matches on
/// Table::CellAsDouble, including categorical codes compared as doubles —
/// and condition masks are AND/OR-combined per Predicate::conjunctive. An
/// empty predicate sets every bit.
void EvalPredicate(const Predicate& pred, const relation::Table& table,
                   size_t begin, size_t end, SelectionVector* sel);

/// Number of rows of `table` matching `pred` (one EvalPredicate pass and a
/// popcount).
size_t CountMatches(const Predicate& pred, const relation::Table& table);

/// Per-group running moments of the measure (or of the 0/1 membership
/// indicator for COUNT). Shared by the exact executor, the sample
/// estimator and the client's query cache.
struct Moments {
  size_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;

  void Add(double x) {
    ++count;
    sum += x;
    sum_sq += x * x;
  }

  double Mean() const { return count == 0 ? 0.0 : sum / count; }

  double Variance() const {
    if (count < 2) return 0.0;
    const double m = Mean();
    const double v = sum_sq / count - m * m;
    // Bessel correction; clamp tiny negative values from cancellation.
    return std::max(0.0, v * count / (count - 1.0));
  }
};

/// Accumulated state of one result group: moments of the measure plus, for
/// QUANTILE queries, the retained per-row measure values (in ascending row
/// order).
struct GroupMoments {
  int32_t group = -1;
  Moments m;
  std::vector<double> values;
};

/// Dense array-indexed group accumulator: slot g holds the moments of group
/// code g (slot 0 for scalar queries). Group codes are small non-negative
/// ints, so this replaces a per-row std::map lookup with an array index.
/// The client cache keeps one per query shape and folds pool growth into
/// it.
struct DenseGroupMoments {
  std::vector<Moments> m;
  std::vector<std::vector<double>> values;  // per-group, QUANTILE only

  /// Grows to `groups` slots (never shrinks); `with_values` additionally
  /// sizes the per-group value vectors.
  void EnsureGroups(size_t groups, bool with_values);
};

/// Fused aggregation pass: folds rows [begin, end) whose bit is set in
/// `sel` into `acc`, in ascending row order. The measure contribution is
/// 1.0 for COUNT and the measure column value otherwise; QUANTILE
/// additionally retains the values. `acc` must already span the group-by
/// cardinality (EnsureGroups).
void AccumulateSelected(const AggregateQuery& query,
                        const relation::Table& table,
                        const SelectionVector& sel, size_t begin, size_t end,
                        DenseGroupMoments* acc);

/// Converts a dense accumulator into the sparse sorted-by-code group list
/// the finalizers consume. Groups with no matching rows are absent, and a
/// scalar query's single slot becomes group -1 — exactly what a std::map
/// keyed by group code would hold.
std::vector<GroupMoments> ToGroupMoments(const DenseGroupMoments& acc,
                                         bool group_by);

/// Walks `table` once (EvalPredicate, then AccumulateSelected) and returns
/// per-group moments for `query`. The caller validates the query first.
std::vector<GroupMoments> AccumulateQuery(const AggregateQuery& query,
                                          const relation::Table& table);

/// Turns accumulated groups into ExecuteExact's result: COUNT/SUM/AVG from
/// the moments, QUANTILE via EmpiricalQuantile, plus the scalar COUNT/SUM
/// empty-selection-is-zero convention.
QueryResult FinalizeExact(const AggregateQuery& query,
                          std::vector<GroupMoments> groups);

/// Turns accumulated groups into EstimateFromSample's result: estimates
/// scaled by population_rows / sample_rows with 95% CLT (or order-
/// statistic, for QUANTILE) confidence intervals. Shared by
/// EstimateFromSample and the client's query cache.
QueryResult FinalizeEstimate(const AggregateQuery& query,
                             std::vector<GroupMoments> groups,
                             size_t sample_rows, size_t population_rows);

/// The sample-quantile value of an already-sorted non-empty vector (linear
/// interpolation between closest ranks) — the interpolation rule of
/// EstimateFromSample's QUANTILE estimate.
double SampleQuantileOfSorted(const std::vector<double>& sorted, double q);

}  // namespace deepaqp::aqp

#endif  // DEEPAQP_AQP_ENGINE_H_
