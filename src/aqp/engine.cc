// The vectorized query engine behind the AQP layer: per-condition selection
// kernels producing bitmaps (one tight loop per condition over the raw
// column, comparisons auto-vectorized), word-wise AND/OR predicate
// combination, and a fused filter+aggregate pass into dense array-indexed
// group accumulators.
//
// Determinism contract: matching rows are visited in ascending row order, so
// each group's moments see exactly the additions of a row-at-a-time scan
// (tests/engine_reference.cc keeps that scan as the oracle), at every
// `--threads` setting. The only threaded piece is the selection scan on
// large tables (EvalPredicate fans out over fixed word-aligned row
// blocks): the bitmap it builds is exact boolean state, so parallelizing
// it cannot change any result. All floating-point accumulation
// (AccumulateSelected) stays strictly serial in ascending row order.

#include "aqp/engine.h"

#include <algorithm>
#include <cmath>

#include "aqp/metrics.h"
#include "util/thread_pool.h"

namespace deepaqp::aqp {

// ---------------------------------------------------------------------------
// SelectionVector
// ---------------------------------------------------------------------------

void SelectionVector::Resize(size_t n) {
  words_.resize((n + kWordBits - 1) / kWordBits, 0);
  if (n < size_) {
    // Clear bits at and above n so CountRange never sees stale tail bits.
    const size_t w = n / kWordBits;
    if (w < words_.size()) {
      const size_t bit = n % kWordBits;
      words_[w] &= bit == 0 ? 0 : (~uint64_t{0} >> (kWordBits - bit));
      std::fill(words_.begin() + w + 1, words_.end(), 0);
    }
  }
  size_ = n;
}

size_t SelectionVector::CountRange(size_t begin, size_t end) const {
  if (begin >= end) return 0;
  size_t hits = 0;
  size_t w = begin / kWordBits;
  const size_t w_end = (end - 1) / kWordBits;
  uint64_t word = words_[w] & (~uint64_t{0} << (begin % kWordBits));
  for (;;) {
    if (w == w_end) {
      const size_t bit = end % kWordBits;
      if (bit != 0) word &= ~uint64_t{0} >> (kWordBits - bit);
      hits += static_cast<size_t>(__builtin_popcountll(word));
      return hits;
    }
    hits += static_cast<size_t>(__builtin_popcountll(word));
    word = words_[++w];
  }
}

// ---------------------------------------------------------------------------
// Selection kernels
// ---------------------------------------------------------------------------

namespace {

/// One tight comparison pass over a raw column slice: out[i] = col[begin+i]
/// OP value, with categorical codes widened to double first so the
/// comparison semantics are exactly Condition::Matches(CellAsDouble).
/// The op switch sits outside the loop; each loop body is branch-free and
/// auto-vectorizable.
template <typename T>
void FillConditionMask(const T* col, size_t begin, size_t end, CmpOp op,
                       double value, uint8_t* out) {
  const size_t n = end - begin;
  col += begin;
  switch (op) {
    case CmpOp::kEq:
      for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<double>(col[i]) == value;
      break;
    case CmpOp::kNe:
      for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<double>(col[i]) != value;
      break;
    case CmpOp::kLt:
      for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<double>(col[i]) < value;
      break;
    case CmpOp::kGt:
      for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<double>(col[i]) > value;
      break;
    case CmpOp::kLe:
      for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<double>(col[i]) <= value;
      break;
    case CmpOp::kGe:
      for (size_t i = 0; i < n; ++i)
        out[i] = static_cast<double>(col[i]) >= value;
      break;
  }
}

void FillCondition(const Condition& c, const relation::Table& table,
                   size_t begin, size_t end, uint8_t* out) {
  if (table.schema().IsCategorical(c.attr)) {
    FillConditionMask(table.CatColumn(c.attr).data(), begin, end, c.op,
                      c.value, out);
  } else {
    FillConditionMask(table.NumColumn(c.attr).data(), begin, end, c.op,
                      c.value, out);
  }
}

}  // namespace

namespace {

/// The serial predicate pass over rows [begin, end): byte masks per
/// condition, AND/OR combine, pack into the bitmap. Exactly the semantics
/// of Condition::Matches; bits outside the range are untouched provided
/// the range does not share a bitmap word with concurrent writers (the
/// parallel dispatcher below aligns its block boundaries to whole words).
void EvalPredicateRange(const Predicate& pred, const relation::Table& table,
                        size_t begin, size_t end, SelectionVector* sel) {
  const size_t n = end - begin;
  if (pred.conditions.empty()) {
    for (size_t r = begin; r < end; ++r) sel->Set(r);
    return;
  }
  std::vector<uint8_t> mask(n);
  FillCondition(pred.conditions[0], table, begin, end, mask.data());
  std::vector<uint8_t> scratch;
  for (size_t ci = 1; ci < pred.conditions.size(); ++ci) {
    scratch.resize(n);
    FillCondition(pred.conditions[ci], table, begin, end, scratch.data());
    if (pred.conjunctive) {
      for (size_t i = 0; i < n; ++i) mask[i] &= scratch[i];
    } else {
      for (size_t i = 0; i < n; ++i) mask[i] |= scratch[i];
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (mask[i]) sel->Set(begin + i);
  }
}

/// Rows per parallel scan block. A multiple of SelectionVector::kWordBits
/// (so concurrent blocks never share a bitmap word) and fixed — never
/// derived from the thread count — so the block layout depends only on the
/// row range.
constexpr size_t kScanBlockRows = size_t{1} << 14;

/// Minimum range worth fanning out; below this the fork/join overhead
/// exceeds the scan itself.
constexpr size_t kParallelScanMinRows = size_t{1} << 16;

}  // namespace

void EvalPredicate(const Predicate& pred, const relation::Table& table,
                   size_t begin, size_t end, SelectionVector* sel) {
  sel->Resize(std::max(sel->size(), end));
  if (begin >= end) return;
  // Big scans fan out over fixed word-aligned row blocks. The bitmap is an
  // exact boolean artifact — no floating-point accumulation — so the
  // parallel scan is bit-identical to the serial one at every thread count
  // and placement policy.
  if (end - begin >= kParallelScanMinRows && util::GlobalThreads() > 1) {
    const size_t first_block = begin / kScanBlockRows;
    const size_t last_block = (end - 1) / kScanBlockRows;
    util::ParallelFor(first_block, last_block + 1, [&](size_t b) {
      const size_t block_begin = std::max(begin, b * kScanBlockRows);
      const size_t block_end = std::min(end, (b + 1) * kScanBlockRows);
      EvalPredicateRange(pred, table, block_begin, block_end, sel);
    });
    return;
  }
  EvalPredicateRange(pred, table, begin, end, sel);
}

size_t CountMatches(const Predicate& pred, const relation::Table& table) {
  const size_t n = table.num_rows();
  if (pred.conditions.empty()) return n;
  SelectionVector sel;
  EvalPredicate(pred, table, 0, n, &sel);
  return sel.CountRange(0, n);
}

// ---------------------------------------------------------------------------
// Dense group accumulation
// ---------------------------------------------------------------------------

void DenseGroupMoments::EnsureGroups(size_t groups, bool with_values) {
  if (m.size() < groups) m.resize(groups);
  if (with_values && values.size() < groups) values.resize(groups);
}

void AccumulateSelected(const AggregateQuery& query,
                        const relation::Table& table,
                        const SelectionVector& sel, size_t begin, size_t end,
                        DenseGroupMoments* acc) {
  if (begin >= end) return;
  const bool group_by = query.IsGroupBy();
  const bool quantile = query.agg == AggFunc::kQuantile;
  const int32_t* codes =
      group_by
          ? table.CatColumn(static_cast<size_t>(query.group_by_attr)).data()
          : nullptr;
  const double* meas =
      query.agg == AggFunc::kCount
          ? nullptr
          : table.NumColumn(static_cast<size_t>(query.measure_attr)).data();

  if (!group_by && meas == nullptr) {
    // Scalar COUNT: a popcount, not a per-row loop. The moments stay exact
    // integers, so folding the block count in one addition is bit-identical
    // to a per-row loop's repeated `+= 1.0`.
    const size_t hits = sel.CountRange(begin, end);
    Moments& m0 = acc->m[0];
    m0.count += hits;
    m0.sum += static_cast<double>(hits);
    m0.sum_sq += static_cast<double>(hits);
    return;
  }

  // Walk set bits in ascending row order: per-group additions happen in the
  // same sequence as a row-at-a-time loop, so the sums are bit-identical.
  constexpr size_t kWordBits = SelectionVector::kWordBits;
  const std::vector<uint64_t>& words = sel.words();
  size_t w = begin / kWordBits;
  const size_t w_last = (end - 1) / kWordBits;
  uint64_t word = words[w] & (~uint64_t{0} << (begin % kWordBits));
  for (;; word = words[++w]) {
    if (w == w_last) {
      const size_t bit = end % kWordBits;
      if (bit != 0) word &= ~uint64_t{0} >> (kWordBits - bit);
    }
    while (word != 0) {
      const size_t r =
          w * kWordBits + static_cast<size_t>(__builtin_ctzll(word));
      word &= word - 1;
      const size_t slot = group_by ? static_cast<size_t>(codes[r]) : 0;
      const double x = meas == nullptr ? 1.0 : meas[r];
      acc->m[slot].Add(x);
      if (quantile) acc->values[slot].push_back(x);
    }
    if (w == w_last) break;
  }
}

std::vector<GroupMoments> ToGroupMoments(const DenseGroupMoments& acc,
                                         bool group_by) {
  std::vector<GroupMoments> out;
  if (!group_by) {
    if (!acc.m.empty() && acc.m[0].count > 0) {
      GroupMoments g;
      g.group = -1;
      g.m = acc.m[0];
      if (!acc.values.empty()) g.values = acc.values[0];
      out.push_back(std::move(g));
    }
    return out;
  }
  for (size_t slot = 0; slot < acc.m.size(); ++slot) {
    if (acc.m[slot].count == 0) continue;
    GroupMoments g;
    g.group = static_cast<int32_t>(slot);
    g.m = acc.m[slot];
    if (slot < acc.values.size()) g.values = acc.values[slot];
    out.push_back(std::move(g));
  }
  return out;
}

std::vector<GroupMoments> AccumulateQuery(const AggregateQuery& query,
                                          const relation::Table& table) {
  const size_t n = table.num_rows();
  const bool group_by = query.IsGroupBy();
  const bool quantile = query.agg == AggFunc::kQuantile;
  SelectionVector sel;
  EvalPredicate(query.filter, table, 0, n, &sel);
  DenseGroupMoments acc;
  const size_t groups =
      group_by ? static_cast<size_t>(table.Cardinality(
                     static_cast<size_t>(query.group_by_attr)))
               : 1;
  acc.EnsureGroups(std::max<size_t>(groups, 1), quantile);
  AccumulateSelected(query, table, sel, 0, n, &acc);
  return ToGroupMoments(acc, group_by);
}

// ---------------------------------------------------------------------------
// Finalizers
// ---------------------------------------------------------------------------

namespace {

constexpr double kZ95 = 1.959963985;

/// Appends the scalar COUNT/SUM empty-selection convention: 0, not
/// "missing". AVG and QUANTILE of nothing stay absent.
void AddEmptyScalarConvention(const AggregateQuery& query,
                              QueryResult* result) {
  if (!query.IsGroupBy() && result->groups.empty() &&
      (query.agg == AggFunc::kCount || query.agg == AggFunc::kSum)) {
    result->groups.push_back(GroupValue{-1, 0.0, 0, 0.0});
  }
}

}  // namespace

double SampleQuantileOfSorted(const std::vector<double>& sorted, double q) {
  const double k = static_cast<double>(sorted.size());
  const double pos = q * (k - 1.0);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min<size_t>(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

QueryResult FinalizeExact(const AggregateQuery& query,
                          std::vector<GroupMoments> groups) {
  QueryResult result;
  for (GroupMoments& gm : groups) {
    GroupValue g;
    g.group = gm.group;
    g.support = gm.m.count;
    switch (query.agg) {
      case AggFunc::kCount:
        g.value = static_cast<double>(gm.m.count);
        break;
      case AggFunc::kSum:
        g.value = gm.m.sum;
        break;
      case AggFunc::kAvg:
        g.value = gm.m.sum / static_cast<double>(gm.m.count);
        break;
      case AggFunc::kQuantile:
        g.value = EmpiricalQuantile(std::move(gm.values), query.quantile);
        break;
    }
    result.groups.push_back(g);
  }
  AddEmptyScalarConvention(query, &result);
  return result;
}

QueryResult FinalizeEstimate(const AggregateQuery& query,
                             std::vector<GroupMoments> groups,
                             size_t sample_rows, size_t population_rows) {
  const double ns = static_cast<double>(sample_rows);
  const double scale = static_cast<double>(population_rows) / ns;
  QueryResult result;
  for (GroupMoments& gm : groups) {
    const Moments& m = gm.m;
    GroupValue g;
    g.group = gm.group;
    g.support = m.count;
    const double k = static_cast<double>(m.count);
    switch (query.agg) {
      case AggFunc::kCount: {
        g.value = scale * k;
        const double p = k / ns;
        g.ci_half_width = scale * kZ95 * std::sqrt(ns * p * (1.0 - p));
        break;
      }
      case AggFunc::kSum: {
        g.value = scale * m.sum;
        // Treat each sample tuple's contribution (value if in group, else 0)
        // as one draw; variance over all ns tuples.
        const double mean_contrib = m.sum / ns;
        const double var_contrib =
            std::max(0.0, m.sum_sq / ns - mean_contrib * mean_contrib);
        g.ci_half_width = scale * kZ95 * std::sqrt(var_contrib * ns);
        break;
      }
      case AggFunc::kAvg: {
        g.value = m.Mean();
        g.ci_half_width =
            m.count >= 2 ? kZ95 * std::sqrt(m.Variance() / k) : 0.0;
        break;
      }
      case AggFunc::kQuantile: {
        // Sample quantile; distribution-free CI from binomial order
        // statistics: the true q-quantile lies between the ranks
        // k*q -+ z*sqrt(k*q*(1-q)) with ~95% coverage.
        std::vector<double> values = std::move(gm.values);
        std::sort(values.begin(), values.end());
        const double q = query.quantile;
        const double center = k * q;
        const double spread = kZ95 * std::sqrt(k * q * (1.0 - q));
        const auto lo_rank =
            static_cast<size_t>(std::clamp(center - spread, 0.0, k - 1.0));
        const auto hi_rank =
            static_cast<size_t>(std::clamp(center + spread, 0.0, k - 1.0));
        g.value = SampleQuantileOfSorted(values, q);
        g.ci_half_width = (values[hi_rank] - values[lo_rank]) / 2.0;
        break;
      }
    }
    result.groups.push_back(g);
  }
  AddEmptyScalarConvention(query, &result);
  return result;
}

}  // namespace deepaqp::aqp
