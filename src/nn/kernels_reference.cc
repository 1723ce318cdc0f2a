// The seed repository's triple-loop GEMM, kept verbatim as the correctness
// oracle for the blocked and simd kernels (tests and bench_kernels call it
// directly; no dispatch reaches it). Deliberately compiled with the
// project-default flags (no -O3, no -march) so its numerics and throughput
// stay exactly those of the seed — the baseline the bench_kernels speedup
// numbers are measured against.

#include "nn/kernels.h"

#include <functional>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace deepaqp::nn {

namespace {

/// Same parallelism cutoff the seed's row-parallel kernel used: below this
/// flop count the task handoff costs more than the loop.
constexpr size_t kParallelFlopCutoff = 32768;

/// Row-parallel dispatch for the reference kernel (unchanged from the seed).
void ForEachOutputRow(size_t m, size_t k, size_t n,
                      const std::function<void(size_t)>& body) {
  if (m >= 2 && m * k * n >= kParallelFlopCutoff) {
    util::ParallelFor(0, m, body);
  } else {
    for (size_t i = 0; i < m; ++i) body(i);
  }
}

}  // namespace

void ReferenceGemm(const Matrix& a, bool trans_a, const Matrix& b,
                   bool trans_b, float alpha, float beta, Matrix* c) {
  const size_t m = trans_a ? a.cols() : a.rows();
  const size_t k = trans_a ? a.rows() : a.cols();
  const size_t kb = trans_b ? b.cols() : b.rows();
  const size_t n = trans_b ? b.rows() : b.cols();
  DEEPAQP_CHECK_EQ(k, kb);
  if (beta == 0.0f) {
    *c = Matrix(m, n);
  } else {
    DEEPAQP_CHECK_EQ(c->rows(), m);
    DEEPAQP_CHECK_EQ(c->cols(), n);
    if (beta != 1.0f) {
      for (size_t i = 0; i < c->size(); ++i) c->data()[i] *= beta;
    }
  }

  // i-k-j loop order keeps the inner loop streaming over contiguous rows of
  // the (logical) B operand for the common non-transposed case.
  if (!trans_a && !trans_b) {
    ForEachOutputRow(m, k, n, [&](size_t i) {
      const float* arow = a.Row(i);
      float* crow = c->Row(i);
      for (size_t kk = 0; kk < k; ++kk) {
        const float av = alpha * arow[kk];
        if (av == 0.0f) continue;
        const float* brow = b.Row(kk);
        for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    });
  } else if (trans_a && !trans_b) {
    for (size_t kk = 0; kk < k; ++kk) {
      const float* arow = a.Row(kk);  // a is k x m
      const float* brow = b.Row(kk);
      for (size_t i = 0; i < m; ++i) {
        const float av = alpha * arow[i];
        if (av == 0.0f) continue;
        float* crow = c->Row(i);
        for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  } else if (!trans_a && trans_b) {
    ForEachOutputRow(m, k, n, [&](size_t i) {
      const float* arow = a.Row(i);
      float* crow = c->Row(i);
      for (size_t j = 0; j < n; ++j) {
        const float* brow = b.Row(j);  // b is n x k
        float acc = 0.0f;
        for (size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
        crow[j] += alpha * acc;
      }
    });
  } else {  // trans_a && trans_b
    ForEachOutputRow(m, k, n, [&](size_t i) {
      float* crow = c->Row(i);
      for (size_t j = 0; j < n; ++j) {
        float acc = 0.0f;
        for (size_t kk = 0; kk < k; ++kk) {
          acc += a.At(kk, i) * b.At(j, kk);
        }
        crow[j] += alpha * acc;
      }
    });
  }
}

}  // namespace deepaqp::nn
