// Scalar reference backend — the conformance baseline every vector backend
// is pinned against (tests/simd_conformance_test.cpp) and the portable
// fallback for CPUs without AVX2.
//
// The GEMM and reduction bodies are the repo's historical streaming-scalar
// kernels, moved here verbatim so APOLLO_SIMD=scalar reproduces the
// pre-dispatch trajectories. The elementwise kernels pin their accumulate
// to a single rounding with std::fma: that makes them bit-exact against the
// fused-multiply-add vector backends at every level (the cross-level
// exactness contract in simd.h).
#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/simd/kernels_decl.h"
#include "tensor/simd/simd.h"

namespace apollo::simd::detail {
namespace {

void gemm_scalar(float* c, int64_t ldc, const float* a, int64_t lda,
                 bool a_trans, const float* b, int64_t ldb, int64_t i0,
                 int64_t i1, int64_t n, int64_t k) {
  if (i0 >= i1 || n <= 0) return;
  if (!a_trans) {
    // i-k-j ordering: the inner loop streams rows of B and C; each c[i][j]
    // accumulates over p in ascending order.
    for (int64_t i = i0; i < i1; ++i) {
      float* __restrict crow = c + i * ldc;
      const float* __restrict arow = a + i * lda;
      for (int64_t p = 0; p < k; ++p) {
        const float av = arow[p];
        if (av == 0.f) continue;
        const float* __restrict brow = b + p * ldb;
        for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
    return;
  }
  // C = Aᵀ·B: p-outer streaming restricted to the band — every c[i][j]
  // still accumulates over p ascending, independent of the band split.
  for (int64_t p = 0; p < k; ++p) {
    const float* __restrict arow = a + p * lda;
    const float* __restrict brow = b + p * ldb;
    for (int64_t i = i0; i < i1; ++i) {
      const float av = arow[i];
      if (av == 0.f) continue;
      float* __restrict crow = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void gemm_bt_scalar(float* c, int64_t ldc, const float* a, int64_t lda,
                    const float* b, int64_t ldb, int64_t i0, int64_t i1,
                    int64_t n, int64_t k) {
  if (i0 >= i1 || n <= 0) return;
  // Transpose kBlock rows of Bᵀ at a time and stream them through
  // gemm_scalar: every c[i][j] still accumulates over p ascending, exactly
  // as gemm_scalar does on the whole materialized transpose.
  constexpr int64_t kBlock = 64;
  // Per-thread scratch, grown once to the largest block seen and then
  // reused; its contents are rewritten for every block.
  thread_local std::vector<float> bt;
  bt.resize(static_cast<size_t>(std::min(kBlock, k) * n));  // lint:allow(hot-path-alloc)
  for (int64_t kb = 0; kb < k; kb += kBlock) {
    const int64_t kc = std::min(kBlock, k - kb);
    for (int64_t j = 0; j < n; ++j) {
      const float* src = b + j * ldb + kb;
      float* dst = bt.data() + j;
      for (int64_t p = 0; p < kc; ++p) dst[p * n] = src[p];
    }
    gemm_scalar(c, ldc, a + kb, lda, /*a_trans=*/false, bt.data(), n, i0, i1,
                n, kc);
  }
}

void axpy_scalar(float* y, const float* x, float alpha, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
}

void scale_scalar(float* y, float alpha, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] *= alpha;
}

void hadamard_scalar(float* y, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] *= x[i];
}

double sum_scalar(const float* x, int64_t n) {
  double acc = 0;
  for (int64_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

double sumsq_scalar(const float* x, int64_t n) {
  double acc = 0;
  for (int64_t i = 0; i < n; ++i)
    acc += static_cast<double>(x[i]) * x[i];
  return acc;
}

float dot_scalar(const float* a, const float* b, int64_t n) {
  float acc = 0.f;
  for (int64_t i = 0; i < n; ++i) acc = std::fma(a[i], b[i], acc);
  return acc;
}

float abs_max_scalar(const float* x, int64_t n) {
  float mx = 0.f;
  for (int64_t i = 0; i < n; ++i) mx = std::max(mx, std::fabs(x[i]));
  return mx;
}

void exp_scalar(float* dst, const float* src, int64_t n) {
  for (int64_t i = 0; i < n; ++i) dst[i] = std::exp(src[i]);
}

void softmax_scalar(float* dst, const float* src, int64_t n) {
  float mx = src[0];
  for (int64_t i = 1; i < n; ++i) mx = std::max(mx, src[i]);
  double denom = 0;
  for (int64_t i = 0; i < n; ++i) {
    const float e = std::exp(src[i] - mx);
    dst[i] = e;
    denom += e;
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (int64_t i = 0; i < n; ++i) dst[i] *= inv;
}

float rmsnorm_row_scalar(float* dst, const float* src, const float* w,
                         int64_t n, float eps) {
  const double ss = sumsq_scalar(src, n);
  const float ir =
      1.f / std::sqrt(static_cast<float>(ss / static_cast<double>(n)) + eps);
  for (int64_t i = 0; i < n; ++i) dst[i] = src[i] * ir * w[i];
  return ir;
}

void silu_scalar(float* y, float* sig, const float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float s = 1.f / (1.f + std::exp(-x[i]));
    sig[i] = s;
    y[i] = x[i] * s;
  }
}

float requantize_group_scalar(float* x, int8_t* q, float* err, const float* u,
                              float r, int64_t n) {
  // std::max keeps its first argument when the second is NaN, so NaN
  // elements never reach the scale.
  float absmax = 0.f;
  for (int64_t i = 0; i < n; ++i)
    absmax = std::max(absmax, std::fabs(x[i] + r));
  const float scale = absmax > 0.f ? absmax / 127.f : 1.f;
  const float inv = 1.f / scale;
  for (int64_t i = 0; i < n; ++i)
    requantize_element(x + i, q + i, err + i, u[i], r, scale, inv);
  return scale;
}

}  // namespace

constinit const KernelTable kScalarKernels = {
    .level = Level::kScalar, .gemm_row_align = 1, .gemm = gemm_scalar,
    .gemm_bt = gemm_bt_scalar, .axpy = axpy_scalar, .scale = scale_scalar,
    .hadamard = hadamard_scalar, .sum = sum_scalar, .sumsq = sumsq_scalar,
    .dot = dot_scalar, .abs_max = abs_max_scalar, .exp = exp_scalar,
    .softmax = softmax_scalar, .rmsnorm_row = rmsnorm_row_scalar,
    .silu = silu_scalar, .requantize_group = requantize_group_scalar};

}  // namespace apollo::simd::detail
