#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "core/threadpool.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/check.h"
#include "tensor/simd/simd.h"

namespace apollo {

namespace {

// Metric hook for the matmul family: one cached-flag branch when
// APOLLO_METRICS is off; counters are looked up once and cached per site.
#define APOLLO_MATMUL_METRICS(kernel, flops)                             \
  do {                                                                   \
    if (obs::telemetry_enabled()) {                                      \
      static obs::Counter& calls_ =                                      \
          obs::Registry::instance().counter("tensor." kernel ".calls");  \
      static obs::Counter& flops_ =                                      \
          obs::Registry::instance().counter("tensor." kernel ".flops");  \
      calls_.add(1);                                                     \
      flops_.add(flops);                                                 \
    }                                                                    \
  } while (0)

// Minimum useful FLOPs per pool lane: below this, dispatch overhead beats
// the parallel win and the kernel stays on the calling thread. Expressed as
// a row grain so parallel_for can reason in row units.
constexpr int64_t kMinFlopsPerLane = 1 << 15;

int64_t row_grain(int64_t flops_per_row) {
  return std::max<int64_t>(
      1, kMinFlopsPerLane / std::max<int64_t>(1, flops_per_row));
}

// Element grain for memory-bound element-wise kernels.
constexpr int64_t kElementGrain = 1 << 14;

}  // namespace

void matmul(Matrix& c, const Matrix& a, const Matrix& b, bool accumulate) {
  APOLLO_CHECK(a.cols() == b.rows());
  const int64_t m = a.rows(), k = a.cols(), n = b.cols();
  APOLLO_TRACE_SCOPE("matmul", "tensor");
  APOLLO_MATMUL_METRICS("matmul", 2 * m * k * n);
  if (!accumulate) {
    if (c.rows() != m || c.cols() != n) c.reshape_discard(m, n);
    c.zero();
  } else {
    APOLLO_CHECK(c.rows() == m && c.cols() == n);
  }
  // Rows of C are independent, so the pool partitions over i (band
  // boundaries aligned to the level's register-tile height); inside a band
  // the dispatched kernel accumulates each c[i][j] in an order that is a
  // pure function of the shape — bit-identical for any thread count.
  const simd::KernelTable& kt = simd::table();
  core::parallel_for(
      m,
      [&](int64_t i0, int64_t i1) {
        kt.gemm(c.data(), c.cols(), a.data(), a.cols(), /*a_trans=*/false,
                b.data(), b.cols(), i0, i1, n, k);
      },
      row_grain(2 * k * n), kt.gemm_row_align);
}

void matmul_at(Matrix& c, const Matrix& a, const Matrix& b, bool accumulate) {
  APOLLO_CHECK(a.rows() == b.rows());
  const int64_t k = a.rows(), m = a.cols(), n = b.cols();
  APOLLO_TRACE_SCOPE("matmul_at", "tensor");
  APOLLO_MATMUL_METRICS("matmul_at", 2 * m * k * n);
  if (!accumulate) {
    if (c.rows() != m || c.cols() != n) c.reshape_discard(m, n);
    c.zero();
  } else {
    APOLLO_CHECK(c.rows() == m && c.cols() == n);
  }
  // C rows are indexed by A's columns. Each lane covers its own band of C
  // rows (a_trans packing transposes A's band on the fly): writes stay
  // disjoint and every c[i][j] accumulates in a shape-pure order, so the
  // result matches the sequential call exactly.
  const simd::KernelTable& kt = simd::table();
  core::parallel_for(
      m,
      [&](int64_t i0, int64_t i1) {
        kt.gemm(c.data(), c.cols(), a.data(), a.cols(), /*a_trans=*/true,
                b.data(), b.cols(), i0, i1, n, k);
      },
      row_grain(2 * k * n), kt.gemm_row_align);
}

void matmul_bt(Matrix& c, const Matrix& a, const Matrix& b, bool accumulate) {
  APOLLO_CHECK(a.cols() == b.cols());
  const int64_t m = a.rows(), k = a.cols(), n = b.rows();
  APOLLO_TRACE_SCOPE("matmul_bt", "tensor");
  APOLLO_MATMUL_METRICS("matmul_bt", 2 * m * k * n);
  if (!accumulate) {
    if (c.rows() != m || c.cols() != n) c.reshape_discard(m, n);
    c.zero();
  } else {
    APOLLO_CHECK(c.rows() == m && c.cols() == n);
  }
  // gemm_bt reads Bᵀ straight from B's rows — packed into the panels gemm
  // would pack from a materialized transpose, or in place for a band of one
  // register tile — so the result equals matmul on Bᵀ bit for bit without
  // building it, and a row's bits do not depend on how many rows come with
  // it.
  const simd::KernelTable& kt = simd::table();
  core::parallel_for(
      m,
      [&](int64_t i0, int64_t i1) {
        kt.gemm_bt(c.data(), c.cols(), a.data(), a.cols(), b.data(), b.cols(),
                   i0, i1, n, k);
      },
      row_grain(2 * k * n), kt.gemm_row_align);
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul(c, a, b);
  return c;
}
Matrix matmul_at(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_at(c, a, b);
  return c;
}
Matrix matmul_bt(const Matrix& a, const Matrix& b) {
  Matrix c;
  matmul_bt(c, a, b);
  return c;
}

// Elementwise kernels are per-element pure (a single fma/mul per output),
// so any partition of the range yields the same bits at every dispatch
// level; each chunk hands its subrange straight to the level's kernel.
void axpy(Matrix& y, float alpha, const Matrix& x) {
  APOLLO_CHECK(y.same_shape(x));
  const simd::KernelTable& kt = simd::table();
  float* yd = y.data();
  const float* xd = x.data();
  core::parallel_for(
      y.size(),
      [&](int64_t i0, int64_t i1) { kt.axpy(yd + i0, xd + i0, alpha, i1 - i0); },
      kElementGrain);
}

void scale_inplace(Matrix& y, float alpha) {
  const simd::KernelTable& kt = simd::table();
  float* yd = y.data();
  core::parallel_for(
      y.size(),
      [&](int64_t i0, int64_t i1) { kt.scale(yd + i0, alpha, i1 - i0); },
      kElementGrain);
}

void add_inplace(Matrix& y, const Matrix& x) { axpy(y, 1.f, x); }

void sub_inplace(Matrix& y, const Matrix& x) { axpy(y, -1.f, x); }

void hadamard_inplace(Matrix& y, const Matrix& x) {
  APOLLO_CHECK(y.same_shape(x));
  const simd::KernelTable& kt = simd::table();
  float* yd = y.data();
  const float* xd = x.data();
  core::parallel_for(
      y.size(),
      [&](int64_t i0, int64_t i1) { kt.hadamard(yd + i0, xd + i0, i1 - i0); },
      kElementGrain);
}

Matrix sub(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  sub_inplace(out, b);
  return out;
}

// Whole-tensor reductions stay single-threaded on purpose: splitting the
// accumulation across lanes would change the summation order (and thus the
// float result) with the thread count, breaking the pool's bit-identity
// guarantee. They are O(n) against the O(mnk) kernels above. The dispatched
// kernels keep that guarantee per level: the vector backends use a fixed
// lane tree reduced in ascending lane order plus a sequential tail.
double frobenius_norm(const Matrix& m) {
  return std::sqrt(simd::table().sumsq(m.data(), m.size()));
}

double sum(const Matrix& m) { return simd::table().sum(m.data(), m.size()); }

double mean(const Matrix& m) {
  return m.size() == 0 ? 0.0 : sum(m) / static_cast<double>(m.size());
}

float abs_max(const Matrix& m) {
  return simd::table().abs_max(m.data(), m.size());
}

std::vector<float> col_norms(const Matrix& m) {
  const int64_t rows = m.rows(), cols = m.cols();
  std::vector<double> acc(static_cast<size_t>(cols), 0.0);
  // Partition over columns: each per-column reduction runs ascending over
  // rows inside one lane, matching the sequential accumulation order.
  core::parallel_for(
      cols,
      [&](int64_t c0, int64_t c1) {
        for (int64_t r = 0; r < rows; ++r) {
          const float* row = m.row(r);
          for (int64_t c = c0; c < c1; ++c)
            acc[static_cast<size_t>(c)] +=
                static_cast<double>(row[c]) * row[c];
        }
      },
      row_grain(2 * rows));
  std::vector<float> out(acc.size());
  for (size_t i = 0; i < acc.size(); ++i)
    out[i] = static_cast<float>(std::sqrt(acc[i]));
  return out;
}

std::vector<float> row_norms(const Matrix& m) {
  const int64_t rows = m.rows(), cols = m.cols();
  const simd::KernelTable& kt = simd::table();
  std::vector<float> out(static_cast<size_t>(rows));
  core::parallel_for(
      rows,
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r)
          out[static_cast<size_t>(r)] =
              static_cast<float>(std::sqrt(kt.sumsq(m.row(r), cols)));
      },
      row_grain(2 * cols));
  return out;
}

void scale_cols_inplace(Matrix& m, const std::vector<float>& s) {
  APOLLO_CHECK(static_cast<int64_t>(s.size()) == m.cols());
  const int64_t cols = m.cols();
  core::parallel_for(
      m.rows(),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          float* row = m.row(r);
          for (int64_t c = 0; c < cols; ++c)
            row[c] *= s[static_cast<size_t>(c)];
        }
      },
      row_grain(cols));
}

void scale_rows_inplace(Matrix& m, const std::vector<float>& s) {
  APOLLO_CHECK(static_cast<int64_t>(s.size()) == m.rows());
  const int64_t cols = m.cols();
  core::parallel_for(
      m.rows(),
      [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          float* row = m.row(r);
          const float sv = s[static_cast<size_t>(r)];
          for (int64_t c = 0; c < cols; ++c) row[c] *= sv;
        }
      },
      row_grain(cols));
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  APOLLO_CHECK(a.same_shape(b));
  float mx = 0.f;
  for (int64_t i = 0; i < a.size(); ++i)
    mx = std::max(mx, std::fabs(a[i] - b[i]));
  return mx;
}

}  // namespace apollo
