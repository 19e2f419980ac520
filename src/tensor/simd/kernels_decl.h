// Internal: per-backend kernel entry points wired into the KernelTables by
// dispatch.cpp. One set of symbols per dispatch level; the AVX2/AVX-512
// definitions live in translation units compiled with the matching -m flags
// and are only ever *called* after a cpuid check.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace apollo::simd::detail {

#define APOLLO_SIMD_DECLARE_BACKEND(SUFFIX)                                  \
  void gemm_##SUFFIX(float* c, int64_t ldc, const float* a, int64_t lda,     \
                     bool a_trans, const float* b, int64_t ldb, int64_t i0,  \
                     int64_t i1, int64_t n, int64_t k);                      \
  void gemm_bt_##SUFFIX(float* c, int64_t ldc, const float* a, int64_t lda,  \
                        const float* b, int64_t ldb, int64_t i0, int64_t i1, \
                        int64_t n, int64_t k);                               \
  void axpy_##SUFFIX(float* y, const float* x, float alpha, int64_t n);      \
  void scale_##SUFFIX(float* y, float alpha, int64_t n);                     \
  void hadamard_##SUFFIX(float* y, const float* x, int64_t n);               \
  double sum_##SUFFIX(const float* x, int64_t n);                            \
  double sumsq_##SUFFIX(const float* x, int64_t n);                          \
  float dot_##SUFFIX(const float* a, const float* b, int64_t n);             \
  float abs_max_##SUFFIX(const float* x, int64_t n);                         \
  void exp_##SUFFIX(float* dst, const float* src, int64_t n);                \
  void softmax_##SUFFIX(float* dst, const float* src, int64_t n);            \
  float rmsnorm_row_##SUFFIX(float* dst, const float* src, const float* w,   \
                             int64_t n, float eps);                          \
  void silu_##SUFFIX(float* y, float* sig, const float* x, int64_t n);       \
  float requantize_group_##SUFFIX(float* x, int8_t* q, float* err,           \
                                  const float* u, float r, int64_t n)

APOLLO_SIMD_DECLARE_BACKEND(scalar);
#if defined(__x86_64__) || defined(_M_X64)
APOLLO_SIMD_DECLARE_BACKEND(avx2);
APOLLO_SIMD_DECLARE_BACKEND(avx512);
#endif

#undef APOLLO_SIMD_DECLARE_BACKEND

// One element of requantize_group, given its group's scale and 1/scale:
// the scalar reference, also used for the vector backends' tails. Internal
// linkage, so each backend's translation unit compiles its own copy with
// its own ISA flags.
static inline void requantize_element(float* x, int8_t* q, float* err,
                                      float u, float r, float scale,
                                      float inv) {
  const float v = *x + r;
  const float s = v * inv;
  const float fl = std::floor(s);
  // Round up with probability equal to the fractional part, so E[q] = s.
  const float qf = std::clamp(fl + (u < s - fl ? 1.f : 0.f), -127.f, 127.f);
  *q = std::isnan(qf) ? int8_t{0} : static_cast<int8_t>(qf);
  // d has two uses (the store and the subtraction), so it is never
  // contracted into an fma with the subtraction.
  const float d = qf * scale;
  *x = d;
  *err = v - d;
}

}  // namespace apollo::simd::detail
