// AVX-512 backend: 16-lane f32 vectors, 8×32 GEMM register tile (16 of 32
// zmm accumulators). Compiled with -mavx512{f,dq,bw,vl} (src/CMakeLists.txt);
// only reached after the cpuid gate in dispatch.cpp.
#include <immintrin.h>

#include <cstdint>

#include "tensor/simd/kernels_decl.h"
#include "tensor/simd/kernels_tmpl.h"
#include "tensor/simd/simd.h"

namespace apollo::simd::detail {
namespace {

struct VecAvx512 {
  static constexpr int64_t kWidth = 16;
  static constexpr int64_t kGemmMr = 8;
  using F = __m512;
  struct DAcc {
    __m512d lo;  // lanes 0..7
    __m512d hi;  // lanes 8..15
  };

  static __mmask16 mask(int64_t m) {
    return static_cast<__mmask16>((1u << m) - 1u);
  }

  static F zero() { return _mm512_setzero_ps(); }
  static F bcast(float x) { return _mm512_set1_ps(x); }
  static F load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, F v) { _mm512_storeu_ps(p, v); }
  static F load_partial(const float* p, int64_t m) {
    return _mm512_maskz_loadu_ps(mask(m), p);
  }
  static void store_partial(float* p, F v, int64_t m) {
    _mm512_mask_storeu_ps(p, mask(m), v);
  }

  static F add(F a, F b) { return _mm512_add_ps(a, b); }
  static F sub(F a, F b) { return _mm512_sub_ps(a, b); }
  static F mul(F a, F b) { return _mm512_mul_ps(a, b); }
  static F div(F a, F b) { return _mm512_div_ps(a, b); }
  static F min(F a, F b) { return _mm512_min_ps(a, b); }
  static F max(F a, F b) { return _mm512_max_ps(a, b); }
  static F fmadd(F a, F b, F c) { return _mm512_fmadd_ps(a, b, c); }
  static F abs(F v) { return _mm512_abs_ps(v); }
  static F round_nearest(F v) {
    return _mm512_roundscale_ps(v, _MM_FROUND_TO_NEAREST_INT |
                                       _MM_FROUND_NO_EXC);
  }
  static F floor(F v) {
    return _mm512_roundscale_ps(v, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static F lt_select(F a, F b, F t) {
    return _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(a, b, _CMP_LT_OQ), t);
  }
  // Lanes hold integers in [-127, 127] or NaN; NaN lanes are zeroed before
  // the conversion, and the truncating narrow is exact in that range.
  static void store_i8(int8_t* q, F v) {
    const __m512i vi = _mm512_cvttps_epi32(
        _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(v, v, _CMP_ORD_Q), v));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(q), _mm512_cvtepi32_epi8(vi));
  }
  // 2^n for integral-valued n in [-126, 127], via the exponent field.
  static F pow2i(F n) {
    const __m512i e =
        _mm512_add_epi32(_mm512_cvtps_epi32(n), _mm512_set1_epi32(127));
    return _mm512_castsi512_ps(_mm512_slli_epi32(e, 23));
  }

  // 16×16 transpose in registers. After the 32- and 64-bit interleaves,
  // t[4g + c] holds, in 128-bit lane L, rows 4g..4g+3 of column 4L + c; two
  // rounds of 128-bit lane shuffles then gather column 4L + c from the four
  // row groups. The all-lanes maskz forms compile to the plain shuffles;
  // GCC 12's unmasked ones draw a false -Wuninitialized from their
  // undefined pass-through operand.
  static void transpose(F* t) {
    constexpr __mmask16 kAll = 0xffff;
    constexpr __mmask8 kAllD = 0xff;
    F u[16];
    for (int i = 0; i < 16; i += 2) {
      u[i] = _mm512_maskz_unpacklo_ps(kAll, t[i], t[i + 1]);
      u[i + 1] = _mm512_maskz_unpackhi_ps(kAll, t[i], t[i + 1]);
    }
    for (int i = 0; i < 16; i += 4) {
      const __m512d a = _mm512_castps_pd(u[i]), b = _mm512_castps_pd(u[i + 2]);
      const __m512d c = _mm512_castps_pd(u[i + 1]);
      const __m512d d = _mm512_castps_pd(u[i + 3]);
      t[i] = _mm512_castpd_ps(_mm512_maskz_unpacklo_pd(kAllD, a, b));
      t[i + 1] = _mm512_castpd_ps(_mm512_maskz_unpackhi_pd(kAllD, a, b));
      t[i + 2] = _mm512_castpd_ps(_mm512_maskz_unpacklo_pd(kAllD, c, d));
      t[i + 3] = _mm512_castpd_ps(_mm512_maskz_unpackhi_pd(kAllD, c, d));
    }
    for (int c = 0; c < 4; ++c) {
      const F x0 = _mm512_maskz_shuffle_f32x4(kAll, t[c], t[4 + c], 0x88);
      const F x1 = _mm512_maskz_shuffle_f32x4(kAll, t[c], t[4 + c], 0xdd);
      const F y0 = _mm512_maskz_shuffle_f32x4(kAll, t[8 + c], t[12 + c], 0x88);
      const F y1 = _mm512_maskz_shuffle_f32x4(kAll, t[8 + c], t[12 + c], 0xdd);
      t[c] = _mm512_maskz_shuffle_f32x4(kAll, x0, y0, 0x88);
      t[4 + c] = _mm512_maskz_shuffle_f32x4(kAll, x1, y1, 0x88);
      t[8 + c] = _mm512_maskz_shuffle_f32x4(kAll, x0, y0, 0xdd);
      t[12 + c] = _mm512_maskz_shuffle_f32x4(kAll, x1, y1, 0xdd);
    }
  }

  static DAcc dzero() {
    return {_mm512_setzero_pd(), _mm512_setzero_pd()};
  }
  static void dadd_f(DAcc& acc, F v) {
    acc.lo = _mm512_add_pd(acc.lo,
                           _mm512_cvtps_pd(_mm512_castps512_ps256(v)));
    acc.hi = _mm512_add_pd(
        acc.hi, _mm512_cvtps_pd(_mm512_extractf32x8_ps(v, 1)));
  }
  static void dfma_f(DAcc& acc, F a, F b) {
    const __m512d alo = _mm512_cvtps_pd(_mm512_castps512_ps256(a));
    const __m512d ahi = _mm512_cvtps_pd(_mm512_extractf32x8_ps(a, 1));
    const __m512d blo = _mm512_cvtps_pd(_mm512_castps512_ps256(b));
    const __m512d bhi = _mm512_cvtps_pd(_mm512_extractf32x8_ps(b, 1));
    acc.lo = _mm512_fmadd_pd(alo, blo, acc.lo);
    acc.hi = _mm512_fmadd_pd(ahi, bhi, acc.hi);
  }
  // Lane-ascending (0→15) summation: part of the fixed contraction order.
  static double dreduce_ordered(const DAcc& acc) {
    alignas(64) double lanes[16];
    _mm512_store_pd(lanes, acc.lo);
    _mm512_store_pd(lanes + 8, acc.hi);
    double s = 0;
    for (int j = 0; j < 16; ++j) s += lanes[j];
    return s;
  }
  static float reduce_add_ordered(F v) {
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, v);
    float s = 0.f;
    for (int j = 0; j < 16; ++j) s += lanes[j];
    return s;
  }
  static float reduce_max(F v) {
    alignas(64) float lanes[16];
    _mm512_store_ps(lanes, v);
    float m = lanes[0];
    for (int j = 1; j < 16; ++j) m = lanes[j] > m ? lanes[j] : m;
    return m;
  }
};

}  // namespace

constinit const KernelTable kAvx512Kernels =
    Kern<VecAvx512>::table(Level::kAvx512);

}  // namespace apollo::simd::detail
