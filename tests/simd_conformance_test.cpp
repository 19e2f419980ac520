// Conformance harness for the SIMD kernel layer (tensor/simd/simd.h).
//
// Every vector dispatch level available on this machine is pinned against
// the scalar reference table over randomized shapes — odd sizes (1×1, 1×N,
// prime dims), non-lane-multiple tails, transposed operands, padded row
// strides, and unaligned base pointers. Elementwise kernels must match the
// reference bit-for-bit (both sides pin the accumulate to one fma
// rounding); contractions (GEMM, reductions, softmax, RMSNorm, SiLU)
// reorder per level and are held to bounded-ULP / forward-error bounds.
//
// On a GEMM failure the harness greedily shrinks (m, n, k) while the case
// still fails and reports the minimized shape in the assertion message, so
// a conformance break lands as a small reproducer, not a 512³ diff.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "tensor/rng.h"
#include "tensor/simd/simd.h"

namespace {

namespace simd = apollo::simd;
using apollo::Rng;

// Monotonic integer mapping of float order: ulp distance is the difference.
int64_t ordered(float f) {
  int32_t i;
  std::memcpy(&i, &f, sizeof(i));
  return i >= 0 ? static_cast<int64_t>(i)
                : static_cast<int64_t>(0x80000000LL) - i;
}

int64_t ulp_diff(float a, float b) {
  if (a == b) return 0;  // treats +0 and −0 as equal
  if (std::isnan(a) || std::isnan(b))
    return std::numeric_limits<int64_t>::max();
  const int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

std::vector<float> rand_vec(Rng& rng, int64_t n, float scale = 1.f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) x = scale * static_cast<float>(rng.next_gaussian());
  return v;
}

std::vector<simd::Level> vector_levels() {
  std::vector<simd::Level> out;
  for (simd::Level lv : simd::available_levels())
    if (lv != simd::Level::kScalar) out.push_back(lv);
  return out;
}

// Sizes chosen to hit every tail class of both lane widths (8 and 16):
// sub-width, exact width, width±1, multiple+tail, primes, and a large run.
const int64_t kLens[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17,
                         24, 31, 32, 33, 47, 64, 97, 1000, 1031};

// ---------- elementwise: bit-exact across levels ---------------------------

TEST(SimdConformance, ElementwiseBitExact) {
  const simd::KernelTable& ref = simd::table(simd::Level::kScalar);
  Rng rng(0xe1e1u);
  for (simd::Level lv : vector_levels()) {
    const simd::KernelTable& kt = simd::table(lv);
    for (int64_t n : kLens) {
      // +1 offset: exercise unaligned base pointers at every width.
      for (int64_t off : {int64_t{0}, int64_t{1}}) {
        const std::vector<float> x = rand_vec(rng, n + off);
        const std::vector<float> y0 = rand_vec(rng, n + off);
        const float alpha = static_cast<float>(rng.next_gaussian());

        std::vector<float> ya = y0, yb = y0;
        ref.axpy(ya.data() + off, x.data() + off, alpha, n);
        kt.axpy(yb.data() + off, x.data() + off, alpha, n);
        ASSERT_EQ(std::memcmp(ya.data(), yb.data(), ya.size() * 4), 0)
            << "axpy level=" << simd::level_name(lv) << " n=" << n
            << " off=" << off;

        ya = y0; yb = y0;
        ref.scale(ya.data() + off, alpha, n);
        kt.scale(yb.data() + off, alpha, n);
        ASSERT_EQ(std::memcmp(ya.data(), yb.data(), ya.size() * 4), 0)
            << "scale level=" << simd::level_name(lv) << " n=" << n;

        ya = y0; yb = y0;
        ref.hadamard(ya.data() + off, x.data() + off, n);
        kt.hadamard(yb.data() + off, x.data() + off, n);
        ASSERT_EQ(std::memcmp(ya.data(), yb.data(), ya.size() * 4), 0)
            << "hadamard level=" << simd::level_name(lv) << " n=" << n;

        const float ma = ref.abs_max(x.data() + off, n);
        const float mb = kt.abs_max(x.data() + off, n);
        ASSERT_EQ(ma, mb) << "abs_max level=" << simd::level_name(lv)
                          << " n=" << n;
      }
    }
  }
}

// ---------- reductions: double accumulators, tiny relative slack ----------

TEST(SimdConformance, ReductionsBoundedError) {
  const simd::KernelTable& ref = simd::table(simd::Level::kScalar);
  Rng rng(0x5ed5u);
  for (simd::Level lv : vector_levels()) {
    const simd::KernelTable& kt = simd::table(lv);
    for (int64_t n : kLens) {
      const std::vector<float> x = rand_vec(rng, n);
      const std::vector<float> y = rand_vec(rng, n);

      // Double-accumulated sums: reassociation error is ~n·eps_double
      // relative to the magnitude sum.
      double mag = 0;
      for (float v : x) mag += std::fabs(v);
      const double stol = 1e-12 * (mag + 1.0);
      EXPECT_NEAR(ref.sum(x.data(), n), kt.sum(x.data(), n), stol)
          << "sum level=" << simd::level_name(lv) << " n=" << n;
      EXPECT_NEAR(ref.sumsq(x.data(), n), kt.sumsq(x.data(), n),
                  1e-12 * (ref.sumsq(x.data(), n) + 1.0))
          << "sumsq level=" << simd::level_name(lv) << " n=" << n;

      // Float dot: both sides obey |err| ≤ γ_n·Σ|a||b|; allow the sum of
      // both bounds.
      double magd = 0;
      for (int64_t i = 0; i < n; ++i)
        magd += std::fabs(static_cast<double>(x[static_cast<size_t>(i)]) *
                          y[static_cast<size_t>(i)]);
      const double eps = std::numeric_limits<float>::epsilon();
      const double dtol = 2.0 * static_cast<double>(n + 2) * eps * magd +
                          std::numeric_limits<float>::min();
      EXPECT_NEAR(ref.dot(x.data(), y.data(), n),
                  kt.dot(x.data(), y.data(), n), dtol)
          << "dot level=" << simd::level_name(lv) << " n=" << n;
    }
  }
}

// ---------- transcendental rows -------------------------------------------

TEST(SimdConformance, ExpSoftmaxRmsnormSiluUlps) {
  const simd::KernelTable& ref = simd::table(simd::Level::kScalar);
  Rng rng(0x0f0fu);
  for (simd::Level lv : vector_levels()) {
    const simd::KernelTable& kt = simd::table(lv);
    for (int64_t n : kLens) {
      // Mix moderate logits with extremes. exp's ULP contract holds inside
      // the vector clamp range [-87.34, 88.38] (see simd.h), so the exp
      // probes sit at its edges; softmax gets a wider spread below and
      // hybrid (ulp-or-absolute) tolerance covers its underflowed tail.
      std::vector<float> x = rand_vec(rng, n, 4.f);
      if (n > 2) {
        x[0] = 88.f;
        x[static_cast<size_t>(n - 1)] = -87.f;
      }
      std::vector<float> ea(static_cast<size_t>(n)),
          eb(static_cast<size_t>(n));
      ref.exp(ea.data(), x.data(), n);
      kt.exp(eb.data(), x.data(), n);
      for (int64_t i = 0; i < n; ++i)
        ASSERT_LE(ulp_diff(ea[static_cast<size_t>(i)],
                           eb[static_cast<size_t>(i)]),
                  16)
            << "exp level=" << simd::level_name(lv) << " n=" << n
            << " i=" << i << " x=" << x[static_cast<size_t>(i)];

      std::vector<float> xs = x;
      if (n > 2) {
        xs[0] = 60.f;
        xs[static_cast<size_t>(n - 1)] = -120.f;  // prob underflows to ~0
      }
      std::vector<float> sa(static_cast<size_t>(n)),
          sb(static_cast<size_t>(n));
      ref.softmax(sa.data(), xs.data(), n);
      kt.softmax(sb.data(), xs.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        const float pa = sa[static_cast<size_t>(i)];
        const float pb = sb[static_cast<size_t>(i)];
        ASSERT_TRUE(ulp_diff(pa, pb) <= 256 ||
                    std::fabs(static_cast<double>(pa) - pb) <= 1e-30)
            << "softmax level=" << simd::level_name(lv) << " n=" << n
            << " i=" << i << " " << pa << " vs " << pb;
      }

      const std::vector<float> w = rand_vec(rng, n);
      std::vector<float> ra(static_cast<size_t>(n)),
          rb(static_cast<size_t>(n));
      const float ia = ref.rmsnorm_row(ra.data(), x.data(), w.data(), n,
                                       1e-6f);
      const float ib = kt.rmsnorm_row(rb.data(), x.data(), w.data(), n,
                                      1e-6f);
      ASSERT_LE(ulp_diff(ia, ib), 4)
          << "rmsnorm ir level=" << simd::level_name(lv) << " n=" << n;
      for (int64_t i = 0; i < n; ++i)
        ASSERT_LE(ulp_diff(ra[static_cast<size_t>(i)],
                           rb[static_cast<size_t>(i)]),
                  64)
            << "rmsnorm level=" << simd::level_name(lv) << " n=" << n
            << " i=" << i;

      std::vector<float> ya(static_cast<size_t>(n)),
          yb(static_cast<size_t>(n)), ga(static_cast<size_t>(n)),
          gb(static_cast<size_t>(n));
      ref.silu(ya.data(), ga.data(), x.data(), n);
      kt.silu(yb.data(), gb.data(), x.data(), n);
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_LE(ulp_diff(ga[static_cast<size_t>(i)],
                           gb[static_cast<size_t>(i)]),
                  32)
            << "silu sigma level=" << simd::level_name(lv) << " n=" << n
            << " i=" << i;
        ASSERT_LE(ulp_diff(ya[static_cast<size_t>(i)],
                           yb[static_cast<size_t>(i)]),
                  64)
            << "silu level=" << simd::level_name(lv) << " n=" << n
            << " i=" << i;
      }
    }
  }
}

// ---------- GEMM -----------------------------------------------------------

struct GemmCase {
  int64_t m, n, k;
  bool a_trans;
  bool accumulate;
  int64_t pad;     // extra row-stride padding on every operand
  uint64_t seed;
};

// Runs one case at `lv` vs the scalar reference; returns a description of
// the first failing element, or nullopt on success.
std::optional<std::string> run_gemm_case(simd::Level lv, const GemmCase& gc) {
  const simd::KernelTable& ref = simd::table(simd::Level::kScalar);
  const simd::KernelTable& kt = simd::table(lv);
  const int64_t m = gc.m, n = gc.n, k = gc.k;
  const int64_t lda = (gc.a_trans ? m : k) + gc.pad;
  const int64_t ldb = n + gc.pad;
  const int64_t ldc = n + gc.pad;
  Rng rng(gc.seed);
  const std::vector<float> a =
      rand_vec(rng, (gc.a_trans ? k : m) * lda);
  const std::vector<float> b = rand_vec(rng, k * ldb);
  std::vector<float> c0(static_cast<size_t>(m * ldc), 0.f);
  if (gc.accumulate) c0 = rand_vec(rng, m * ldc);

  std::vector<float> ca = c0, cb = c0;
  ref.gemm(ca.data(), ldc, a.data(), lda, gc.a_trans, b.data(), ldb, 0, m,
           n, k);
  kt.gemm(cb.data(), ldc, a.data(), lda, gc.a_trans, b.data(), ldb, 0, m,
          n, k);

  const double eps = std::numeric_limits<float>::epsilon();
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      // Forward-error bound: each side's |err| ≤ γ_{k+2}·Σ_p|a_ip·b_pj|
      // (+1 rounding for the accumulate preload).
      double mag = 0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = gc.a_trans ? a[static_cast<size_t>(p * lda + i)]
                                    : a[static_cast<size_t>(i * lda + p)];
        const float bv = b[static_cast<size_t>(p * ldb + j)];
        mag += std::fabs(static_cast<double>(av) * bv);
      }
      if (gc.accumulate)
        mag += std::fabs(c0[static_cast<size_t>(i * ldc + j)]);
      const double tol = 2.0 * static_cast<double>(k + 4) * eps * mag +
                         std::numeric_limits<float>::min();
      const float va = ca[static_cast<size_t>(i * ldc + j)];
      const float vb = cb[static_cast<size_t>(i * ldc + j)];
      if (!(std::fabs(static_cast<double>(va) - vb) <= tol)) {
        std::ostringstream os;
        os << "c[" << i << "][" << j << "] scalar=" << va << " vs " << vb
           << " (tol " << tol << ")";
        return os.str();
      }
    }
  }
  // Row-stride padding and rows outside [0, m) must be untouched.
  for (int64_t i = 0; i < m; ++i)
    for (int64_t j = n; j < ldc; ++j)
      if (cb[static_cast<size_t>(i * ldc + j)] !=
          c0[static_cast<size_t>(i * ldc + j)]) {
        std::ostringstream os;
        os << "pad clobbered at c[" << i << "][" << j << "]";
        return os.str();
      }
  return std::nullopt;
}

// Greedy shrink: halve each dim while the failure reproduces.
GemmCase minimize(simd::Level lv, GemmCase gc) {
  bool improved = true;
  while (improved) {
    improved = false;
    for (int dim = 0; dim < 3; ++dim) {
      GemmCase cand = gc;
      int64_t& d = dim == 0 ? cand.m : dim == 1 ? cand.n : cand.k;
      if (d <= 1) continue;
      d = d / 2;
      if (run_gemm_case(lv, cand).has_value()) {
        gc = cand;
        improved = true;
      }
    }
  }
  return gc;
}

TEST(SimdConformance, GemmBoundedError) {
  // Odd shapes, primes, tails of both tile widths, 1×N / N×1 degeneracies.
  const GemmCase shapes[] = {
      {1, 1, 1, false, false, 0, 11},
      {1, 17, 3, false, false, 0, 12},
      {5, 1, 7, false, false, 0, 13},
      {3, 3, 3, false, true, 0, 14},
      {7, 13, 5, false, false, 3, 15},
      {8, 16, 16, false, true, 0, 16},
      {6, 100, 10, false, false, 1, 17},
      {17, 33, 9, false, false, 0, 18},
      {37, 41, 43, false, true, 2, 19},
      {33, 31, 29, false, false, 5, 20},
      {64, 64, 64, false, false, 0, 21},
      {13, 48, 7, true, false, 0, 22},
      {9, 17, 31, true, true, 3, 23},
      {41, 37, 43, true, false, 1, 24},
      {1, 1, 97, true, false, 0, 25},
      {65, 129, 33, true, false, 0, 26},
  };
  for (simd::Level lv : vector_levels()) {
    for (const GemmCase& gc : shapes) {
      auto fail = run_gemm_case(lv, gc);
      if (fail) {
        const GemmCase mc = minimize(lv, gc);
        auto mfail = run_gemm_case(lv, mc);
        FAIL() << "gemm mismatch at level " << simd::level_name(lv)
               << ": minimized shape m=" << mc.m << " n=" << mc.n
               << " k=" << mc.k << " a_trans=" << mc.a_trans
               << " accumulate=" << mc.accumulate << " pad=" << mc.pad
               << " seed=" << mc.seed << ": "
               << (mfail ? *mfail : *fail);
      }
    }
  }
}

// Partial bands must compose: running the row range in two chunks must give
// the same bits as one call (this is what the threadpool partition does).
TEST(SimdConformance, GemmBandComposition) {
  Rng rng(0xbadd5eedu);
  const int64_t m = 23, n = 37, k = 19;
  const std::vector<float> a = rand_vec(rng, m * k);
  const std::vector<float> b = rand_vec(rng, k * n);
  for (simd::Level lv : simd::available_levels()) {
    const simd::KernelTable& kt = simd::table(lv);
    std::vector<float> whole(static_cast<size_t>(m * n), 0.f);
    kt.gemm(whole.data(), n, a.data(), k, false, b.data(), n, 0, m, n, k);
    for (int64_t split : {int64_t{1}, int64_t{6}, int64_t{8}, int64_t{22}}) {
      std::vector<float> parts(static_cast<size_t>(m * n), 0.f);
      kt.gemm(parts.data(), n, a.data(), k, false, b.data(), n, 0, split, n,
              k);
      kt.gemm(parts.data(), n, a.data(), k, false, b.data(), n, split, m, n,
              k);
      ASSERT_EQ(std::memcmp(whole.data(), parts.data(), whole.size() * 4), 0)
          << "band split at " << split << " level " << simd::level_name(lv);
    }
  }
}

// ---------- one-tile bands: B read in place, the packed path's bits --------

// A band of at most one register tile of rows reads B where it lies instead
// of packing it. Shapes for those bands: n past NR and past the 1024-wide
// panel cap, k past one 256-deep block with a tail that is a multiple of
// neither lane width, and padded row strides (ld > the row length).
struct TileCase {
  int64_t n, k, pad;
};
const TileCase kTileCases[] = {
    {1, 1, 0},     {17, 9, 1},    {33, 300, 3}, {344, 128, 0},
    {128, 344, 2}, {1031, 21, 1}, {40, 517, 0},
};

// Exactly the floats of a rows × cols operand with row stride ld, so that
// under ASan a read past its last row leaves the allocation.
std::vector<float> exact_operand(Rng& rng, int64_t rows, int64_t cols,
                                 int64_t ld) {
  return rand_vec(rng, (rows - 1) * ld + cols);
}

// Rows [i0, i1) of `got` must equal those of `want` bit for bit, and every
// other row must still equal `c0`.
std::optional<std::string> band_mismatch(const std::vector<float>& want,
                                         const std::vector<float>& got,
                                         const std::vector<float>& c0,
                                         int64_t ldc, int64_t i0,
                                         int64_t i1) {
  const int64_t rows = static_cast<int64_t>(c0.size()) / ldc;
  for (int64_t i = 0; i < rows; ++i) {
    const std::vector<float>& ref = i >= i0 && i < i1 ? want : c0;
    if (std::memcmp(ref.data() + i * ldc, got.data() + i * ldc,
                    static_cast<size_t>(ldc) * sizeof(float)) != 0) {
      std::ostringstream os;
      os << "row " << i << " of band [" << i0 << ", " << i1 << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

// The rows of every one-tile band (1..MR rows, starting past row 0) equal
// the same rows of a taller call, which packs B, for A row-major and
// transposed.
TEST(SimdConformance, GemmOneTileBandsMatchPackedRows) {
  Rng rng(0x71e5u);
  for (simd::Level lv : simd::available_levels()) {
    const simd::KernelTable& kt = simd::table(lv);
    const int64_t tile = kt.gemm_row_align, m = 2 * tile + 3;
    for (const TileCase& tc : kTileCases) {
      for (bool a_trans : {false, true}) {
        const int64_t n = tc.n, k = tc.k;
        const int64_t lda = (a_trans ? m : k) + tc.pad, ldb = n + tc.pad,
                      ldc = n + tc.pad;
        const std::vector<float> a = a_trans
                                         ? exact_operand(rng, k, m, lda)
                                         : exact_operand(rng, m, k, lda);
        const std::vector<float> b = exact_operand(rng, k, n, ldb);
        const std::vector<float> c0 = rand_vec(rng, m * ldc);
        std::vector<float> want = c0;
        kt.gemm(want.data(), ldc, a.data(), lda, a_trans, b.data(), ldb, 0, m,
                n, k);
        for (int64_t rows = 1; rows <= tile; ++rows) {
          const int64_t i0 = m - rows - 1;
          std::vector<float> got = c0;
          kt.gemm(got.data(), ldc, a.data(), lda, a_trans, b.data(), ldb, i0,
                  i0 + rows, n, k);
          const auto bad = band_mismatch(want, got, c0, ldc, i0, i0 + rows);
          ASSERT_FALSE(bad.has_value())
              << "gemm level=" << simd::level_name(lv) << " n=" << n
              << " k=" << k << " pad=" << tc.pad << " a_trans=" << a_trans
              << ": " << *bad;
        }
      }
    }
  }
}

// ---------- GEMM with Bᵀ packed in the kernel: bit-exact vs gemm -----------

// gemm_bt on B (n×k) must equal gemm on the materialized transpose (k×n) bit
// for bit at every level, including the scalar reference, for every row
// band: odd n, k past one (and two) 256-deep panels, n past the 1024-wide
// panel cap, padded strides, and bands that start off a register tile.
TEST(SimdConformance, GemmBtEqualsGemmOnMaterializedTranspose) {
  struct Case {
    int64_t m, n, k, pad;
    bool accumulate;
  };
  const Case cases[] = {
      {4, 16, 16, 0, false},   {7, 33, 17, 1, true},   {13, 1, 300, 0, false},
      {64, 344, 128, 0, false}, {64, 128, 344, 0, true}, {37, 65, 513, 3, true},
      {9, 1031, 21, 2, false},  {23, 37, 19, 0, false},  {5, 2, 257, 1, true},
  };
  Rng rng(0xb7b7u);
  for (simd::Level lv : simd::available_levels()) {
    const simd::KernelTable& kt = simd::table(lv);
    for (const Case& tc : cases) {
      const int64_t m = tc.m, n = tc.n, k = tc.k;
      const int64_t lda = k + tc.pad, ldb = k + tc.pad, ldt = n + tc.pad,
                    ldc = n + tc.pad;
      const std::vector<float> a = rand_vec(rng, m * lda);
      const std::vector<float> b = rand_vec(rng, n * ldb);
      std::vector<float> bt(static_cast<size_t>(k * ldt), 0.f);
      for (int64_t j = 0; j < n; ++j)
        for (int64_t p = 0; p < k; ++p)
          bt[static_cast<size_t>(p * ldt + j)] =
              b[static_cast<size_t>(j * ldb + p)];
      const std::vector<float> c0 =
          tc.accumulate ? rand_vec(rng, m * ldc)
                        : std::vector<float>(static_cast<size_t>(m * ldc), 0.f);
      // Whole range, then bands split off the tile boundary.
      const int64_t splits[] = {0, 1, 3, 5, m / 2, m - 1};
      for (int64_t split : splits) {
        if (split < 0 || split > m) continue;
        std::vector<float> want = c0, got = c0;
        kt.gemm(want.data(), ldc, a.data(), lda, false, bt.data(), ldt, 0, m,
                n, k);
        kt.gemm_bt(got.data(), ldc, a.data(), lda, b.data(), ldb, 0, split,
                   n, k);
        kt.gemm_bt(got.data(), ldc, a.data(), lda, b.data(), ldb, split, m,
                   n, k);
        ASSERT_EQ(std::memcmp(want.data(), got.data(), want.size() * 4), 0)
            << "gemm_bt level=" << simd::level_name(lv) << " m=" << m
            << " n=" << n << " k=" << k << " pad=" << tc.pad
            << " split=" << split;
      }
    }
    // One-tile bands (1..MR rows, starting past row 0) read B's rows in
    // place; gemm_bt there and gemm on the transpose must both give the
    // rows of a taller, packed call. Operands are allocated at their exact
    // size.
    const int64_t tile = kt.gemm_row_align, m = 2 * tile + 3;
    for (const TileCase& tc : kTileCases) {
      const int64_t n = tc.n, k = tc.k;
      const int64_t lda = k + tc.pad, ldb = k + tc.pad, ldt = n + tc.pad,
                    ldc = n + tc.pad;
      const std::vector<float> a = exact_operand(rng, m, k, lda);
      const std::vector<float> b = exact_operand(rng, n, k, ldb);
      std::vector<float> bt = exact_operand(rng, k, n, ldt);
      for (int64_t j = 0; j < n; ++j)
        for (int64_t p = 0; p < k; ++p)
          bt[static_cast<size_t>(p * ldt + j)] =
              b[static_cast<size_t>(j * ldb + p)];
      const std::vector<float> c0 = rand_vec(rng, m * ldc);
      std::vector<float> want = c0;
      kt.gemm_bt(want.data(), ldc, a.data(), lda, b.data(), ldb, 0, m, n, k);
      for (int64_t rows = 1; rows <= tile; ++rows) {
        const int64_t i0 = m - rows - 1;
        std::vector<float> got = c0, got_t = c0;
        kt.gemm_bt(got.data(), ldc, a.data(), lda, b.data(), ldb, i0,
                   i0 + rows, n, k);
        kt.gemm(got_t.data(), ldc, a.data(), lda, false, bt.data(), ldt, i0,
                i0 + rows, n, k);
        for (const auto* out : {&got, &got_t}) {
          const auto bad = band_mismatch(want, *out, c0, ldc, i0, i0 + rows);
          ASSERT_FALSE(bad.has_value())
              << (out == &got ? "gemm_bt" : "gemm")
              << " one-tile level=" << simd::level_name(lv) << " n=" << n
              << " k=" << k << " pad=" << tc.pad << ": " << *bad;
        }
      }
    }
  }
}

// ---------- INT8 requantization: bit-exact across levels --------------------

bool same_bits_or_both_nan(float a, float b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// Runs requantize_group at `lv` and at scalar on copies of the same group;
// returns the first difference, or nullopt.
std::optional<std::string> requantize_mismatch(simd::Level lv,
                                               const std::vector<float>& x0,
                                               const std::vector<float>& u,
                                               float r) {
  const int64_t n = static_cast<int64_t>(x0.size());
  std::vector<float> xa = x0, xb = x0, ea(x0.size()), eb(x0.size());
  std::vector<int8_t> qa(x0.size()), qb(x0.size());
  const float sa = simd::table(simd::Level::kScalar)
                       .requantize_group(xa.data(), qa.data(), ea.data(),
                                         u.data(), r, n);
  const float sb = simd::table(lv).requantize_group(xb.data(), qb.data(),
                                                    eb.data(), u.data(), r, n);
  std::ostringstream os;
  if (!same_bits_or_both_nan(sa, sb)) {
    os << "scale " << sa << " vs " << sb;
    return os.str();
  }
  for (int64_t i = 0; i < n; ++i) {
    const size_t k = static_cast<size_t>(i);
    if (qa[k] != qb[k] || qb[k] < -127 ||
        !same_bits_or_both_nan(xa[k], xb[k]) ||
        !same_bits_or_both_nan(ea[k], eb[k])) {
      os << "i=" << i << " x0=" << x0[k] << " u=" << u[k] << ": code "
         << int{qa[k]} << " vs " << int{qb[k]} << ", x " << xa[k] << " vs "
         << xb[k] << ", err " << ea[k] << " vs " << eb[k];
      return os.str();
    }
  }
  return std::nullopt;
}

TEST(SimdConformance, RequantizeGroupBitExact) {
  Rng rng(0x9a9au);
  for (simd::Level lv : vector_levels()) {
    // Random groups of every tail class, with and without a residual.
    for (int64_t n : kLens) {
      for (float r : {0.f, 3e-3f}) {
        const std::vector<float> x = rand_vec(rng, n, 0.1f);
        std::vector<float> u(static_cast<size_t>(n));
        rng.fill_floats(u.data(), n);
        const auto bad = requantize_mismatch(lv, x, u, r);
        ASSERT_FALSE(bad.has_value())
            << "level=" << simd::level_name(lv) << " n=" << n << " r=" << r
            << ": " << *bad;
      }
    }
    // Exact .5 fractions: absmax 127 gives scale 1, so s = x exactly; a
    // uniform equal to the fraction must not round up, one ulp below must.
    {
      std::vector<float> x = {127.f, 2.5f, -3.5f, 0.5f,  -0.5f, 10.5f,
                              -0.f,  0.f,  4.5f,  -4.5f, 1.5f,  -1.5f,
                              6.5f,  7.5f, -8.5f, 9.5f,  0.25f, -0.75f};
      std::vector<float> u(x.size());
      for (size_t i = 0; i < u.size(); ++i)
        u[i] = i % 3 == 0 ? 0.5f
                          : i % 3 == 1 ? std::nextafter(0.5f, 0.f)
                                       : std::nextafter(0.5f, 1.f);
      const auto bad = requantize_mismatch(lv, x, u, 0.f);
      ASSERT_FALSE(bad.has_value())
          << "halves level=" << simd::level_name(lv) << ": " << *bad;
    }
    // ±127 clamps: with absmax 0.3, scale and 1/scale round so that ±0.3
    // lands at ±127.000008, whose floor or round-up is ±128 before the
    // clamp; uniforms of 0 and 1 push the rounding both ways.
    for (float um : {0.f, 1.f, 0.5f}) {
      std::vector<float> x(40);
      for (size_t i = 0; i < x.size(); ++i)
        x[i] = i % 2 == 0 ? 0.3f : -0.3f;
      std::vector<float> u(x.size(), um);
      const auto bad = requantize_mismatch(lv, x, u, 0.f);
      ASSERT_FALSE(bad.has_value())
          << "clamp level=" << simd::level_name(lv) << " u=" << um << ": "
          << *bad;
    }
    // Non-finite and extreme inputs: NaN elements, a NaN residual, an
    // infinite element, a subnormal absmax whose scale underflows to 0, and
    // a huge absmax that scales a tiny negative element to −0 (whose floor
    // is −0 and whose code must come out +0, as scalar's +0.f add gives).
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    for (int which = 0; which < 5; ++which) {
      for (int64_t n : {int64_t{7}, int64_t{33}, int64_t{128}}) {
        std::vector<float> x = rand_vec(rng, n, which == 3 ? 1e-44f : 0.1f);
        std::vector<float> u(static_cast<size_t>(n));
        rng.fill_floats(u.data(), n);
        float r = 0.f;
        if (which == 0) {
          // Also at lane 0 of the last full vector of each width, where a
          // NaN that reached the running max would survive into the scale.
          x[0] = x[static_cast<size_t>(n - 1)] = nan;
          for (int64_t w : {int64_t{8}, int64_t{16}})
            if (n >= w) x[static_cast<size_t>((n / w - 1) * w)] = nan;
        }
        if (which == 1) r = nan;
        if (which == 2) x[static_cast<size_t>(n / 2)] = -inf;
        if (which == 4) {
          x[0] = 1e38f;
          for (size_t i = 1; i < x.size(); ++i) x[i] = -1e-45f;
        }
        const auto bad = requantize_mismatch(lv, x, u, r);
        ASSERT_FALSE(bad.has_value())
            << "case " << which << " level=" << simd::level_name(lv)
            << " n=" << n << ": " << *bad;
      }
    }
  }
}

// Defined results at every level: a NaN element gets code 0 (no float→int
// conversion of NaN), keeps a NaN weight and error, and the rest of the
// group is scaled as if it were absent; ±0.3 at absmax 0.3 clamps to ±127.
TEST(SimdConformance, RequantizeGroupNanAndClampCodes) {
  for (simd::Level lv : simd::available_levels()) {
    std::vector<float> x(19, 0.1f), err(19);
    x[3] = std::numeric_limits<float>::quiet_NaN();
    x[16] = 0.3f;
    x[17] = -0.3f;
    std::vector<int8_t> q(19, 99);
    const std::vector<float> u(19, 0.f);
    const float scale = simd::table(lv).requantize_group(
        x.data(), q.data(), err.data(), u.data(), 0.f, 19);
    EXPECT_EQ(scale, 0.3f / 127.f) << simd::level_name(lv);
    EXPECT_EQ(q[3], 0) << simd::level_name(lv);
    EXPECT_TRUE(std::isnan(x[3]) && std::isnan(err[3]))
        << simd::level_name(lv);
    EXPECT_EQ(q[16], 127) << simd::level_name(lv);
    EXPECT_EQ(q[17], -127) << simd::level_name(lv);
  }
}

}  // namespace
