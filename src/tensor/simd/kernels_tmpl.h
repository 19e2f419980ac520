// Internal: the vector backend engine, templated over a per-ISA vector
// wrapper V (defined with intrinsics inside kernels_avx2.cpp /
// kernels_avx512.cpp). One implementation, two instantiations — the AVX2
// and AVX-512 backends differ only in lane width and register budget.
//
// V must provide:
//   kWidth                      f32 lanes per vector
//   kGemmMr                     GEMM micro-kernel row-tile height (the
//                               table's gemm_row_align)
//   F                           the f32 vector type
//   DAcc                        a double accumulator covering kWidth lanes
//   zero() load(p) store(p,v) load_partial(p,m) store_partial(p,v,m)
//   bcast(x) add sub mul div min max fmadd(a,b,c)  abs(v)
//   round_nearest(v) floor(v) pow2i(v)   (v integral, in [-127, 127])
//   lt_select(a,b,t)            t where a < b (ordered), +0 elsewhere
//   store_i8(q,v)               W int8 codes of integral lanes, NaN → 0
//   dzero() dadd_f(acc,v) dfma_f(acc,a,b) dreduce_ordered(acc)
//   reduce_add_ordered(v) reduce_max(v)
//   transpose(t)                in-register transpose of the kWidth×kWidth
//                               tile t[0..kWidth) (t[q] ↦ column q)
//
// Determinism: every loop structure here is a pure function of the input
// shape. Reductions use the fixed lane tree (lane j accumulates indices
// ≡ j mod kWidth), reduce lanes in ascending order, then append a
// sequential scalar tail — so a fixed dispatch level is bit-identical
// run-to-run and across any threadpool partition of the caller.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "tensor/simd/kernels_decl.h"
#include "tensor/simd/simd.h"

namespace apollo::simd::detail {

template <class V>
struct Kern {
  using F = typename V::F;
  using DAcc = typename V::DAcc;
  static constexpr int64_t W = V::kWidth;
  static constexpr int64_t MR = V::kGemmMr;
  static constexpr int64_t NR = 2 * W;  // micro-kernel column width
  static constexpr int64_t KC = 256;    // k-blocking: B panel depth
  static constexpr int64_t NC = 1024;   // n-blocking: B panel width cap

  // This backend's kernel table; its definition constant-initializes from
  // it, so building the table runs no code.
  static constexpr KernelTable table(Level level) {
    return {.level = level, .gemm_row_align = MR, .gemm = gemm,
            .gemm_bt = gemm_bt, .axpy = axpy, .scale = scale,
            .hadamard = hadamard, .sum = sum, .sumsq = sumsq, .dot = dot,
            .abs_max = abs_max, .exp = vexp_buf, .softmax = softmax,
            .rmsnorm_row = rmsnorm_row, .silu = silu,
            .requantize_group = requantize_group};
  }

  // ---- elementwise (bit-exact vs the fma-pinned scalar reference) --------

  static void axpy(float* y, const float* x, float alpha, int64_t n) {
    const F va = V::bcast(alpha);
    int64_t i = 0;
    for (; i + W <= n; i += W)
      V::store(y + i, V::fmadd(va, V::load(x + i), V::load(y + i)));
    for (; i < n; ++i) y[i] = std::fma(alpha, x[i], y[i]);
  }

  static void scale(float* y, float alpha, int64_t n) {
    const F va = V::bcast(alpha);
    int64_t i = 0;
    for (; i + W <= n; i += W) V::store(y + i, V::mul(V::load(y + i), va));
    for (; i < n; ++i) y[i] *= alpha;
  }

  static void hadamard(float* y, const float* x, int64_t n) {
    int64_t i = 0;
    for (; i + W <= n; i += W)
      V::store(y + i, V::mul(V::load(y + i), V::load(x + i)));
    for (; i < n; ++i) y[i] *= x[i];
  }

  // ---- reductions (fixed lane tree + sequential tail) --------------------

  static double sum(const float* x, int64_t n) {
    DAcc acc = V::dzero();
    int64_t i = 0;
    for (; i + W <= n; i += W) V::dadd_f(acc, V::load(x + i));
    double s = V::dreduce_ordered(acc);
    for (; i < n; ++i) s += x[i];
    return s;
  }

  static double sumsq(const float* x, int64_t n) {
    DAcc acc = V::dzero();
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      const F v = V::load(x + i);
      V::dfma_f(acc, v, v);
    }
    double s = V::dreduce_ordered(acc);
    for (; i < n; ++i) s += static_cast<double>(x[i]) * x[i];
    return s;
  }

  static float dot(const float* a, const float* b, int64_t n) {
    F acc = V::zero();
    int64_t i = 0;
    for (; i + W <= n; i += W)
      acc = V::fmadd(V::load(a + i), V::load(b + i), acc);
    float s = V::reduce_add_ordered(acc);
    for (; i < n; ++i) s = std::fma(a[i], b[i], s);
    return s;
  }

  static float abs_max(const float* x, int64_t n) {
    float mx = 0.f;
    int64_t i = 0;
    if (n >= W) {
      F vm = V::abs(V::load(x));
      for (i = W; i + W <= n; i += W)
        vm = V::max(vm, V::abs(V::load(x + i)));
      mx = V::reduce_max(vm);
    }
    for (; i < n; ++i) mx = std::max(mx, std::fabs(x[i]));
    return mx;
  }

  // ---- transcendental ----------------------------------------------------

  // Cephes-style expf: Cody–Waite range reduction, degree-6 polynomial,
  // 2^n by exponent-field construction. ≤ ~2 ulp over the clamped domain;
  // every operation is an fma/mul, so the result is a pure function of the
  // input — reproducible at a fixed level.
  static F vexp(F x) {
    x = V::min(x, V::bcast(88.3762626647949f));
    x = V::max(x, V::bcast(-87.3365478515625f));
    const F n = V::round_nearest(V::mul(x, V::bcast(1.44269504088896341f)));
    F r = V::fmadd(n, V::bcast(-0.693359375f), x);
    r = V::fmadd(n, V::bcast(2.12194440e-4f), r);
    F p = V::bcast(1.9875691500e-4f);
    p = V::fmadd(p, r, V::bcast(1.3981999507e-3f));
    p = V::fmadd(p, r, V::bcast(8.3334519073e-3f));
    p = V::fmadd(p, r, V::bcast(4.1665795894e-2f));
    p = V::fmadd(p, r, V::bcast(1.6666665459e-1f));
    p = V::fmadd(p, r, V::bcast(5.0000001201e-1f));
    const F r2 = V::mul(r, r);
    const F y = V::fmadd(p, r2, V::add(r, V::bcast(1.f)));
    return V::mul(y, V::pow2i(n));
  }

  static void vexp_buf(float* dst, const float* src, int64_t n) {
    int64_t i = 0;
    for (; i + W <= n; i += W) V::store(dst + i, vexp(V::load(src + i)));
    if (i < n) {
      const int64_t m = n - i;
      // Masked lanes load as 0; their exp is discarded by the partial store.
      V::store_partial(dst + i, vexp(V::load_partial(src + i, m)), m);
    }
  }

  static void softmax(float* dst, const float* src, int64_t n) {
    // Row max (fp max is associative — exact at every level).
    float mx = src[0];
    int64_t i = 0;
    if (n >= W) {
      F vm = V::load(src);
      for (i = W; i + W <= n; i += W) vm = V::max(vm, V::load(src + i));
      mx = V::reduce_max(vm);
    }
    for (; i < n; ++i) mx = std::max(mx, src[i]);

    const F vmx = V::bcast(mx);
    i = 0;
    for (; i + W <= n; i += W)
      V::store(dst + i, vexp(V::sub(V::load(src + i), vmx)));
    if (i < n) {
      const int64_t m = n - i;
      V::store_partial(dst + i,
                       vexp(V::sub(V::load_partial(src + i, m), vmx)), m);
    }

    const double denom = sum(dst, n);
    scale(dst, static_cast<float>(1.0 / denom), n);
  }

  static float rmsnorm_row(float* dst, const float* src, const float* w,
                           int64_t n, float eps) {
    const double ss = sumsq(src, n);
    const float ir = 1.f / std::sqrt(
                               static_cast<float>(ss / static_cast<double>(n)) +
                               eps);
    const F vir = V::bcast(ir);
    int64_t i = 0;
    for (; i + W <= n; i += W)
      V::store(dst + i, V::mul(V::mul(V::load(src + i), vir), V::load(w + i)));
    for (; i < n; ++i) dst[i] = src[i] * ir * w[i];
    return ir;
  }

  static void silu(float* y, float* sig, const float* x, int64_t n) {
    const F one = V::bcast(1.f);
    int64_t i = 0;
    for (; i + W <= n; i += W) {
      const F v = V::load(x + i);
      const F s = V::div(one, V::add(one, vexp(V::sub(V::zero(), v))));
      V::store(sig + i, s);
      V::store(y + i, V::mul(v, s));
    }
    for (; i < n; ++i) {
      // Same polynomial as the vector body so the tail is level-consistent.
      const float s = 1.f / (1.f + scalar_poly_exp(-x[i]));
      sig[i] = s;
      y[i] = x[i] * s;
    }
  }

  // Scalar mirror of vexp (same constants, same operation order via fma) so
  // per-element tails match the vector body bit-for-bit.
  static float scalar_poly_exp(float x) {
    x = std::min(x, 88.3762626647949f);
    x = std::max(x, -87.3365478515625f);
    const float n = std::nearbyint(x * 1.44269504088896341f);
    float r = std::fma(n, -0.693359375f, x);
    r = std::fma(n, 2.12194440e-4f, r);
    float p = 1.9875691500e-4f;
    p = std::fma(p, r, 1.3981999507e-3f);
    p = std::fma(p, r, 8.3334519073e-3f);
    p = std::fma(p, r, 4.1665795894e-2f);
    p = std::fma(p, r, 1.6666665459e-1f);
    p = std::fma(p, r, 5.0000001201e-1f);
    const float y = std::fma(p, r * r, r + 1.f);
    return std::ldexp(y, static_cast<int>(n));
  }

  // ---- INT8 requantization (bit-exact vs scalar: no fma) -----------------

  static float requantize_group(float* x, int8_t* q, float* err,
                                const float* u, float r, int64_t n) {
    const F vr = V::bcast(r);
    float absmax = 0.f;
    int64_t i = 0;
    if (n >= W) {
      // max(v, acc) returns acc when v is NaN: the same skip as std::max.
      F vm = V::zero();
      for (; i + W <= n; i += W)
        vm = V::max(V::abs(V::add(V::load(x + i), vr)), vm);
      absmax = V::reduce_max(vm);
    }
    for (; i < n; ++i) absmax = std::max(absmax, std::fabs(x[i] + r));
    const float scale = absmax > 0.f ? absmax / 127.f : 1.f;
    const float inv = 1.f / scale;
    const F vinv = V::bcast(inv), vscale = V::bcast(scale);
    const F one = V::bcast(1.f), lo = V::bcast(-127.f), hi = V::bcast(127.f);
    for (i = 0; i + W <= n; i += W) {
      const F v = V::add(V::load(x + i), vr);
      const F s = V::mul(v, vinv);
      const F fl = V::floor(s);
      // Adding +0 (not a masked add) turns a −0 floor into +0, as scalar.
      F qf = V::add(fl, V::lt_select(V::load(u + i), V::sub(s, fl), one));
      // max/min return their second operand for NaN, so NaN passes through
      // the clamp as it does through std::clamp.
      qf = V::min(hi, V::max(lo, qf));
      V::store_i8(q + i, qf);
      // Two uses of d keep it out of any fma contraction, as in scalar.
      const F d = V::mul(qf, vscale);
      V::store(x + i, d);
      V::store(err + i, V::sub(v, d));
    }
    for (; i < n; ++i)
      requantize_element(x + i, q + i, err + i, u[i], r, scale, inv);
    return scale;
  }

  // ---- GEMM --------------------------------------------------------------

  // Calls fn(std::integral_constant<int, mr>{}) for mr in [1, MR], so the
  // micro-kernels keep a compile-time row count of accumulators in
  // registers.
  template <int kMr = 1, class Fn>
  static void with_rows(int64_t mr, Fn&& fn) {
    if constexpr (kMr < MR) {
      if (mr > kMr) return with_rows<kMr + 1>(mr, fn);
    }
    fn(std::integral_constant<int, kMr>{});
  }

  // Adds a finished kMr × (≤ NR) tile to C, storing only nr columns. Lanes
  // past nr hold exact zeros or are never stored.
  template <int kMr>
  static void add_tile(float* c, int64_t ldc, const F* acc0, const F* acc1,
                       int64_t nr) {
    for (int r = 0; r < kMr; ++r) {
      float* crow = c + r * ldc;
      if (nr >= W) {
        V::store(crow, V::add(V::load(crow), acc0[r]));
        const int64_t rest = nr - W;
        if (rest >= W) {
          V::store(crow + W, V::add(V::load(crow + W), acc1[r]));
        } else if (rest > 0) {
          V::store_partial(crow + W,
                           V::add(V::load_partial(crow + W, rest), acc1[r]),
                           rest);
        }
      } else {
        V::store_partial(crow, V::add(V::load_partial(crow, nr), acc0[r]),
                         nr);
      }
    }
  }

  // Register-tiled micro-kernel: kMr rows × NR columns of C accumulate in
  // registers over the whole kc depth, then flow to memory once. `a` is
  // either kMr row pointers' base (row-major, stride lda) or a packed
  // p-major tile (stride kMr) for the transposed case. Row p of the B panel
  // is at b + p·ldb: a packed panel (ldb = NR, zero-padded) or B read where
  // it lies. In place, a panel narrower than NR masks its loads (kMaskB):
  // the masked lanes read as zero, as the packed padding does, and nothing
  // past column nr is read.
  template <int kMr, bool kPackedA, bool kMaskB>
  static void micro(float* c, int64_t ldc, const float* a, int64_t lda,
                    const float* b, int64_t ldb, int64_t kc, int64_t nr) {
    F acc0[kMr], acc1[kMr];
    for (int r = 0; r < kMr; ++r) {
      acc0[r] = V::zero();
      acc1[r] = V::zero();
    }
    const float* arow[kMr];
    for (int r = 0; r < kMr; ++r)
      arow[r] = kPackedA ? nullptr : a + r * lda;
    const int64_t w0 = std::min<int64_t>(nr, W);
    const int64_t w1 = std::max<int64_t>(nr - W, 0);
    for (int64_t p = 0; p < kc; ++p) {
      const float* brow = b + p * ldb;
      const F b0 = kMaskB ? V::load_partial(brow, w0) : V::load(brow);
      F b1;
      if (!kMaskB)
        b1 = V::load(brow + W);
      else
        b1 = w1 > 0 ? V::load_partial(brow + W, w1) : V::zero();
      for (int r = 0; r < kMr; ++r) {
        const F av = V::bcast(kPackedA ? a[p * kMr + r] : arow[r][p]);
        acc0[r] = V::fmadd(av, b0, acc0[r]);
        acc1[r] = V::fmadd(av, b1, acc1[r]);
      }
    }
    add_tile<kMr>(c, ldc, acc0, acc1, nr);
  }

  // Loads rows [0, nr) of a W×W tile of B (row stride ldb), w floats each,
  // and transposes it: t[q] then holds column q, one lane per row. Rows past
  // nr and columns past w are never read; their lanes are zero.
  template <bool kFull>
  static void load_tile_t(F* t, const float* b, int64_t ldb, int64_t nr,
                          int64_t w) {
#pragma GCC unroll 16
    for (int64_t j = 0; j < W; ++j) {
      if (kFull)
        t[j] = V::load(b + j * ldb);
      else
        t[j] = j < nr ? V::load_partial(b + j * ldb, w) : V::zero();
    }
    V::transpose(t);
  }

  // micro() for C += A·Bᵀ with B's n×k rows read in place: W columns of C,
  // fed by W×W tiles of their B rows transposed in registers. Each output
  // accumulates fma by fma in ascending p from zero, exactly as micro()
  // does on pack_bt's panels, so the bits are the same. kFull: nr == W.
  template <int kMr, bool kFull>
  static void micro_bt(float* c, int64_t ldc, const float* a, int64_t lda,
                       const float* b, int64_t ldb, int64_t kc, int64_t nr) {
    F acc[kMr];
    for (int r = 0; r < kMr; ++r) acc[r] = V::zero();
    const float* arow[kMr];
    for (int r = 0; r < kMr; ++r) arow[r] = a + r * lda;
    int64_t p = 0;
    for (; p + W <= kc; p += W) {
      F t[W];
      load_tile_t<kFull>(t, b + p, ldb, nr, W);
#pragma GCC unroll 16
      for (int64_t q = 0; q < W; ++q)
        for (int r = 0; r < kMr; ++r)
          acc[r] = V::fmadd(V::bcast(arow[r][p + q]), t[q], acc[r]);
    }
    if (p < kc) {
      // The k tail: a partial tile, masked along p.
      const int64_t w = kc - p;
      F t[W];
      load_tile_t<false>(t, b + p, ldb, nr, w);
      for (int64_t q = 0; q < w; ++q)
        for (int r = 0; r < kMr; ++r)
          acc[r] = V::fmadd(V::bcast(arow[r][p + q]), t[q], acc[r]);
    }
    add_tile<kMr>(c, ldc, acc, acc, nr);  // nr ≤ W: the second is unread
  }

  // Pack a kc×nc block of B (row stride ldb) into NR-wide column panels,
  // zero-padding the last panel so micro-kernel loads are always full-width.
  static void pack_b(std::vector<float>& buf, const float* b, int64_t ldb,
                     int64_t kc, int64_t nc) {
    const int64_t panels = (nc + NR - 1) / NR;
    // `buf` is a caller-owned thread-local scratch buffer: resize only grows
    // it to the largest panel seen, after which this is a no-op.
    buf.resize(static_cast<size_t>(panels * kc * NR));  // lint:allow(hot-path-alloc)
    for (int64_t pan = 0; pan < panels; ++pan) {
      const int64_t j0 = pan * NR;
      const int64_t w = std::min<int64_t>(NR, nc - j0);
      float* dst = buf.data() + pan * kc * NR;
      for (int64_t p = 0; p < kc; ++p) {
        const float* src = b + p * ldb + j0;
        int64_t j = 0;
        for (; j < w; ++j) dst[j] = src[j];
        for (; j < NR; ++j) dst[j] = 0.f;
        dst += NR;
      }
    }
  }

  // pack_b's panels for the kc×nc block of Bᵀ, read from B stored nc×kc
  // (row stride ldb): the same floats in the same places, so everything
  // downstream of the pack is bit-identical to gemm on a materialized Bᵀ.
  static void pack_bt(std::vector<float>& buf, const float* b, int64_t ldb,
                      int64_t kc, int64_t nc) {
    const int64_t panels = (nc + NR - 1) / NR;
    // Same caller-owned thread-local scratch as pack_b.
    buf.resize(static_cast<size_t>(panels * kc * NR));  // lint:allow(hot-path-alloc)
    for (int64_t pan = 0; pan < panels; ++pan) {
      const int64_t j0 = pan * NR;
      const int64_t w = std::min<int64_t>(NR, nc - j0);
      float* dst = buf.data() + pan * kc * NR;
      for (int64_t j = 0; j < w; ++j) {
        const float* src = b + (j0 + j) * ldb;
        for (int64_t p = 0; p < kc; ++p) dst[p * NR + j] = src[p];
      }
      for (int64_t p = 0; p < kc; ++p)
        for (int64_t j = w; j < NR; ++j) dst[p * NR + j] = 0.f;
    }
  }

  // Pack mr rows of the transposed-A operand (element (i+r, p) at
  // a[p*lda + r]) into a p-major tile with stride mr, so the micro-kernel
  // broadcasts from contiguous memory instead of striding by lda.
  static void pack_at(std::vector<float>& buf, const float* a, int64_t lda,
                      int64_t kc, int64_t mr) {
    // Caller-owned thread-local scratch, grown once then reused (see pack_b).
    buf.resize(static_cast<size_t>(kc * mr));  // lint:allow(hot-path-alloc)
    for (int64_t p = 0; p < kc; ++p) {
      const float* src = a + p * lda;
      float* dst = buf.data() + p * mr;
      for (int64_t r = 0; r < mr; ++r) dst[r] = src[r];
    }
  }

  // Per-thread pack scratch shared by gemm and gemm_bt: contents are fully
  // rewritten per block, so results never depend on which worker ran which
  // band.
  struct PackScratch {
    std::vector<float> b, a;
  };
  static PackScratch& pack_scratch() {
    thread_local PackScratch scratch;
    return scratch;
  }

  static void gemm(float* c, int64_t ldc, const float* a, int64_t lda,
                   bool a_trans, const float* b, int64_t ldb, int64_t i0,
                   int64_t i1, int64_t n, int64_t k) {
    blocked<false>(c, ldc, a, lda, a_trans, b, ldb, i0, i1, n, k);
  }

  static void gemm_bt(float* c, int64_t ldc, const float* a, int64_t lda,
                      const float* b, int64_t ldb, int64_t i0, int64_t i1,
                      int64_t n, int64_t k) {
    blocked<true>(c, ldc, a, lda, /*a_trans=*/false, b, ldb, i0, i1, n, k);
  }

  // The blocked GEMM; kBTrans selects B stored n×k (packed by pack_bt)
  // instead of k×n (pack_b). A packed panel pays for itself only when more
  // than one register tile of rows reads it: a band of at most MR rows
  // reads each B element once, so it reads B in place instead (one_tile).
  // Both paths add the same per-KC-block sums to C in the same order.
  template <bool kBTrans>
  static void blocked(float* c, int64_t ldc, const float* a, int64_t lda,
                      bool a_trans, const float* b, int64_t ldb, int64_t i0,
                      int64_t i1, int64_t n, int64_t k) {
    if (i0 >= i1 || n <= 0 || k <= 0) return;
    if (i1 - i0 <= MR) {
      with_rows(i1 - i0, [&](auto rows) {
        one_tile<decltype(rows)::value, kBTrans>(c, ldc, a, lda, a_trans, b,
                                                 ldb, i0, n, k);
      });
      return;
    }
    std::vector<float>& bpack = pack_scratch().b;
    std::vector<float>& apack = pack_scratch().a;
    for (int64_t jc = 0; jc < n; jc += NC) {
      const int64_t nc = std::min(NC, n - jc);
      for (int64_t kb = 0; kb < k; kb += KC) {
        const int64_t kc = std::min(KC, k - kb);
        if constexpr (kBTrans)
          pack_bt(bpack, b + jc * ldb + kb, ldb, kc, nc);
        else
          pack_b(bpack, b + kb * ldb + jc, ldb, kc, nc);
        for (int64_t i = i0; i < i1; i += MR) {
          const int64_t mr = std::min<int64_t>(MR, i1 - i);
          const float* abase;
          if (a_trans) {
            pack_at(apack, a + kb * lda + i, lda, kc, mr);
            abase = apack.data();
          } else {
            abase = a + i * lda + kb;
          }
          with_rows(mr, [&](auto rows) {
            constexpr int kMr = decltype(rows)::value;
            for (int64_t pan = 0; pan * NR < nc; ++pan) {
              const int64_t nr = std::min<int64_t>(NR, nc - pan * NR);
              float* ctile = c + i * ldc + jc + pan * NR;
              const float* bpanel = bpack.data() + pan * kc * NR;
              if (a_trans)
                micro<kMr, true, false>(ctile, ldc, abase, lda, bpanel, NR,
                                        kc, nr);
              else
                micro<kMr, false, false>(ctile, ldc, abase, lda, bpanel, NR,
                                         kc, nr);
            }
          });
        }
      }
    }
  }

  // The rows [i0, i0 + kMr) of C (kMr ≤ MR) with B read where it lies: by
  // rows at stride ldb for gemm, by transposed W×W tiles for gemm_bt. Every
  // tail load is masked, so nothing past B's last element is read.
  template <int kMr, bool kBTrans>
  static void one_tile(float* c, int64_t ldc, const float* a, int64_t lda,
                       bool a_trans, const float* b, int64_t ldb, int64_t i0,
                       int64_t n, int64_t k) {
    float* crow = c + i0 * ldc;
    for (int64_t kb = 0; kb < k; kb += KC) {
      const int64_t kc = std::min(KC, k - kb);
      if constexpr (kBTrans) {
        const float* arow = a + i0 * lda + kb;
        int64_t j = 0;
        for (; j + W <= n; j += W)
          micro_bt<kMr, true>(crow + j, ldc, arow, lda, b + j * ldb + kb, ldb,
                              kc, W);
        if (j < n)
          micro_bt<kMr, false>(crow + j, ldc, arow, lda, b + j * ldb + kb,
                               ldb, kc, n - j);
      } else {
        const float* bblock = b + kb * ldb;
        auto panels = [&](const float* abase, auto packed_a) {
          constexpr bool kPackedA = decltype(packed_a)::value;
          int64_t j = 0;
          for (; j + NR <= n; j += NR)
            micro<kMr, kPackedA, false>(crow + j, ldc, abase, lda, bblock + j,
                                        ldb, kc, NR);
          if (j < n)
            micro<kMr, kPackedA, true>(crow + j, ldc, abase, lda, bblock + j,
                                       ldb, kc, n - j);
        };
        if (a_trans) {
          std::vector<float>& apack = pack_scratch().a;
          pack_at(apack, a + kb * lda + i0, lda, kc, kMr);
          panels(apack.data(), std::true_type{});
        } else {
          panels(a + i0 * lda + kb, std::false_type{});
        }
      }
    }
  }
};

}  // namespace apollo::simd::detail
