// AVX2+FMA backend: 8-lane f32 vectors, 6×16 GEMM register tile
// (12 of 16 ymm accumulators). Compiled with -mavx2 -mfma (see
// src/CMakeLists.txt); only reached after the cpuid gate in dispatch.cpp.
#include <immintrin.h>

#include <cstdint>

#include "tensor/simd/kernels_decl.h"
#include "tensor/simd/kernels_tmpl.h"
#include "tensor/simd/simd.h"

namespace apollo::simd::detail {
namespace {

// int32 lane masks for partial loads/stores: kMaskTable[8 - m] has the first
// m lanes set. (High bit of each int32 drives maskload/maskstore.)
alignas(32) constexpr int32_t kMaskTable[16] = {
    -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0,
};

struct VecAvx2 {
  static constexpr int64_t kWidth = 8;
  static constexpr int64_t kGemmMr = 6;
  using F = __m256;
  struct DAcc {
    __m256d lo;  // lanes 0..3
    __m256d hi;  // lanes 4..7
  };

  static __m256i mask(int64_t m) {
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kMaskTable + 8 - m));
  }

  static F zero() { return _mm256_setzero_ps(); }
  static F bcast(float x) { return _mm256_set1_ps(x); }
  static F load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, F v) { _mm256_storeu_ps(p, v); }
  static F load_partial(const float* p, int64_t m) {
    return _mm256_maskload_ps(p, mask(m));
  }
  static void store_partial(float* p, F v, int64_t m) {
    _mm256_maskstore_ps(p, mask(m), v);
  }

  static F add(F a, F b) { return _mm256_add_ps(a, b); }
  static F sub(F a, F b) { return _mm256_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm256_mul_ps(a, b); }
  static F div(F a, F b) { return _mm256_div_ps(a, b); }
  static F min(F a, F b) { return _mm256_min_ps(a, b); }
  static F max(F a, F b) { return _mm256_max_ps(a, b); }
  static F fmadd(F a, F b, F c) { return _mm256_fmadd_ps(a, b, c); }
  static F abs(F v) {
    return _mm256_andnot_ps(_mm256_set1_ps(-0.f), v);
  }
  static F round_nearest(F v) {
    return _mm256_round_ps(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  }
  static F floor(F v) {
    return _mm256_round_ps(v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static F lt_select(F a, F b, F t) {
    return _mm256_and_ps(_mm256_cmp_ps(a, b, _CMP_LT_OQ), t);
  }
  // Lanes hold integers in [-127, 127] or NaN; NaN lanes are zeroed before
  // the conversion, and the saturating packs are exact in that range.
  static void store_i8(int8_t* q, F v) {
    const __m256i vi = _mm256_cvttps_epi32(
        _mm256_and_ps(_mm256_cmp_ps(v, v, _CMP_ORD_Q), v));
    const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(vi),
                                      _mm256_extracti128_si256(vi, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(q), _mm_packs_epi16(w, w));
  }
  // 2^n for integral-valued n in [-126, 127], via the exponent field.
  static F pow2i(F n) {
    const __m256i e = _mm256_add_epi32(_mm256_cvtps_epi32(n),
                                       _mm256_set1_epi32(127));
    return _mm256_castsi256_ps(_mm256_slli_epi32(e, 23));
  }

  // 8×8 transpose in registers: pairwise interleave, 64-bit shuffles, then
  // 128-bit lane swaps.
  static void transpose(F* t) {
    F u[8], s[8];
    for (int i = 0; i < 8; i += 2) {
      u[i] = _mm256_unpacklo_ps(t[i], t[i + 1]);
      u[i + 1] = _mm256_unpackhi_ps(t[i], t[i + 1]);
    }
    for (int i = 0; i < 8; i += 4) {
      s[i] = _mm256_shuffle_ps(u[i], u[i + 2], 0x44);
      s[i + 1] = _mm256_shuffle_ps(u[i], u[i + 2], 0xee);
      s[i + 2] = _mm256_shuffle_ps(u[i + 1], u[i + 3], 0x44);
      s[i + 3] = _mm256_shuffle_ps(u[i + 1], u[i + 3], 0xee);
    }
    for (int i = 0; i < 4; ++i) {
      t[i] = _mm256_permute2f128_ps(s[i], s[i + 4], 0x20);
      t[i + 4] = _mm256_permute2f128_ps(s[i], s[i + 4], 0x31);
    }
  }

  static DAcc dzero() {
    return {_mm256_setzero_pd(), _mm256_setzero_pd()};
  }
  static void dadd_f(DAcc& acc, F v) {
    acc.lo = _mm256_add_pd(acc.lo,
                           _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc.hi = _mm256_add_pd(acc.hi,
                           _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  static void dfma_f(DAcc& acc, F a, F b) {
    const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(a));
    const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(a, 1));
    const __m256d blo = _mm256_cvtps_pd(_mm256_castps256_ps128(b));
    const __m256d bhi = _mm256_cvtps_pd(_mm256_extractf128_ps(b, 1));
    acc.lo = _mm256_fmadd_pd(alo, blo, acc.lo);
    acc.hi = _mm256_fmadd_pd(ahi, bhi, acc.hi);
  }
  // Lane-ascending (0→7) summation: part of the fixed contraction order.
  static double dreduce_ordered(const DAcc& acc) {
    alignas(32) double lanes[8];
    _mm256_store_pd(lanes, acc.lo);
    _mm256_store_pd(lanes + 4, acc.hi);
    double s = 0;
    for (int j = 0; j < 8; ++j) s += lanes[j];
    return s;
  }
  static float reduce_add_ordered(F v) {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, v);
    float s = 0.f;
    for (int j = 0; j < 8; ++j) s += lanes[j];
    return s;
  }
  static float reduce_max(F v) {
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, v);
    float m = lanes[0];
    for (int j = 1; j < 8; ++j) m = lanes[j] > m ? lanes[j] : m;
    return m;
  }
};

}  // namespace

constinit const KernelTable kAvx2Kernels =
    Kern<VecAvx2>::table(Level::kAvx2);

}  // namespace apollo::simd::detail
