// Unit tests for the tensor substrate: Matrix, kernels, RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/simd/simd.h"

#if defined(__SANITIZE_ADDRESS__)
#define APOLLO_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define APOLLO_TEST_ASAN 1
#endif
#endif

namespace apollo {
namespace {

Matrix random_matrix(int64_t r, int64_t c, uint64_t seed) {
  Matrix m(r, c);
  Rng rng(seed);
  m.fill_gaussian(rng);
  return m;
}

// Naive reference matmul.
Matrix ref_matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i)
    for (int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0;
      for (int64_t k = 0; k < a.cols(); ++k)
        acc += static_cast<double>(a.at(i, k)) * b.at(k, j);
      c.at(i, j) = static_cast<float>(acc);
    }
  return c;
}

TEST(Matrix, BasicAccessors) {
  Matrix m(3, 5);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 5);
  EXPECT_EQ(m.size(), 15);
  m.at(2, 4) = 7.f;
  EXPECT_FLOAT_EQ(m.at(2, 4), 7.f);
  EXPECT_FLOAT_EQ(m[2 * 5 + 4], 7.f);
}

TEST(Matrix, ZeroInitialized) {
  Matrix m(4, 4);
  for (int64_t i = 0; i < m.size(); ++i) EXPECT_FLOAT_EQ(m[i], 0.f);
}

TEST(Matrix, Transposed) {
  Matrix m = random_matrix(3, 7, 1);
  Matrix t = m.transposed();
  ASSERT_EQ(t.rows(), 7);
  ASSERT_EQ(t.cols(), 3);
  for (int64_t r = 0; r < 3; ++r)
    for (int64_t c = 0; c < 7; ++c) EXPECT_FLOAT_EQ(t.at(c, r), m.at(r, c));
}

TEST(Matrix, EqualityIsExact) {
  Matrix a = random_matrix(4, 4, 2);
  Matrix b = a;
  EXPECT_TRUE(a == b);
  b[0] += 1e-7f;
  EXPECT_FALSE(a == b);
}

// Matrix storage is recycled through a per-thread cache (matrix.h). Each
// case starts from an empty cache so reuse is deterministic; a block's
// identity is compared by address.
uintptr_t address(const float* p) { return reinterpret_cast<uintptr_t>(p); }

bool all_zero(const Matrix& m) {
  for (int64_t i = 0; i < m.size(); ++i)
    if (m[i] != 0.f) return false;
  return true;
}

TEST(MatrixStorage, ReleasedBlockComesBackZeroed) {
  trim_matrix_storage_cache();
  uintptr_t block = 0;
  {
    Matrix m(7, 9);
    m.fill(3.f);
    block = address(m.data());
  }
  Matrix again(9, 7);  // same element count, so the same block
  EXPECT_EQ(address(again.data()), block);
  EXPECT_TRUE(all_zero(again));

  again.fill(4.f);
  again = Matrix();
  Matrix lazy;
  lazy.reshape_discard(3, 21);
  EXPECT_EQ(address(lazy.data()), block);
  EXPECT_TRUE(all_zero(lazy));
}

TEST(MatrixStorage, CopyMoveAndSelfAssignment) {
  trim_matrix_storage_cache();
  const Matrix a = random_matrix(3, 4, 30);
  Matrix copy(a);
  EXPECT_TRUE(copy == a);
  EXPECT_NE(copy.data(), a.data());

  Matrix other_size(2, 2);
  other_size = a;
  EXPECT_TRUE(other_size == a);
  Matrix same_count(4, 3);
  const float* kept = same_count.data();
  same_count = a;  // equal element count: the storage is reused
  EXPECT_TRUE(same_count == a);
  EXPECT_EQ(same_count.data(), kept);

  Matrix& alias = copy;
  copy = alias;
  EXPECT_TRUE(copy == a);
  copy = std::move(alias);
  EXPECT_TRUE(copy == a);

  Matrix moved(std::move(copy));
  EXPECT_TRUE(moved == a);
  Matrix target = random_matrix(5, 5, 31);
  target = std::move(moved);
  EXPECT_TRUE(target == a);
}

TEST(MatrixStorage, MovedFromIsZeroByZero) {
  Matrix src = random_matrix(3, 5, 32);
  Matrix by_ctor(std::move(src));
  EXPECT_EQ(src.rows(), 0);
  EXPECT_EQ(src.cols(), 0);
  EXPECT_TRUE(src.empty());
  EXPECT_EQ(src.data(), nullptr);
  Matrix by_assign;
  by_assign = std::move(by_ctor);
  EXPECT_EQ(by_ctor.rows(), 0);
  EXPECT_EQ(by_ctor.cols(), 0);
  EXPECT_EQ(by_ctor.data(), nullptr);
  EXPECT_EQ(by_assign.size(), 15);
}

TEST(MatrixStorage, ReshapeDiscard) {
  trim_matrix_storage_cache();
  Matrix m = random_matrix(4, 6, 33);
  const float* storage = m.data();
  m.reshape_discard(8, 3);  // same size: storage kept, contents zeroed
  EXPECT_EQ(m.rows(), 8);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.data(), storage);
  EXPECT_TRUE(all_zero(m));

  m.fill(1.f);
  m.reshape_discard(5, 5);
  EXPECT_EQ(m.size(), 25);
  EXPECT_TRUE(all_zero(m));
  m.reshape_discard(0, 7);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.cols(), 7);
  m.reshape_discard(2, 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_TRUE(all_zero(m));
}

TEST(MatrixStorage, BlockReleasedOnAnotherThread) {
  trim_matrix_storage_cache();
  Matrix from_worker;
  // lint:allow(raw-thread) the cache is per thread, so this needs a second one
  std::thread make([&] {
    from_worker = Matrix(6, 5);
    from_worker.fill(2.f);
  });
  make.join();
  const uintptr_t block = address(from_worker.data());
  from_worker = Matrix();  // released here: it joins this thread's cache
  Matrix reused(5, 6);
  EXPECT_EQ(address(reused.data()), block);
  EXPECT_TRUE(all_zero(reused));

  reused.fill(3.f);
  // lint:allow(raw-thread) released on a worker, freed when that thread exits
  std::thread drop([&] { Matrix gone = std::move(reused); });
  drop.join();
  EXPECT_TRUE(reused.empty());
}

TEST(MatrixStorage, ThreadLocalOutlivingItsThreadsCacheIsFreed) {
  // Under ASan, a block left in the dead cache is reported as a leak.
  // lint:allow(raw-thread) thread exit is the case under test
  std::thread t([] {
    // Constructed empty before the thread's cache exists, so it is destroyed
    // after the cache at thread exit.
    thread_local Matrix late;
    late = Matrix(5, 3);
    late.fill(1.f);
  });
  t.join();
}

TEST(MatrixStorageDeathTest, StaticOutlivingTheCacheIsFreedAtExit) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Thread-local destructors run before static ones, so this Matrix is
  // destroyed after the main thread's cache; exit must still be clean (under
  // ASan, a double free or a write to freed memory would make it nonzero).
  EXPECT_EXIT(
      {
        static Matrix survivor;
        survivor = Matrix(6, 6);
        survivor.fill(1.f);
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

#ifdef APOLLO_TEST_ASAN
TEST(MatrixStorageDeathTest, ReadAfterReleaseIsReported) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  trim_matrix_storage_cache();
  EXPECT_DEATH(
      {
        const float* stale = nullptr;
        {
          Matrix m(4, 4);
          stale = m.data();
        }
        volatile float read = stale[0];
        (void)read;
      },
      "use-after-poison");
}
#endif

TEST(Ops, MatmulMatchesReference) {
  Matrix a = random_matrix(13, 9, 3);
  Matrix b = random_matrix(9, 17, 4);
  EXPECT_LT(max_abs_diff(matmul(a, b), ref_matmul(a, b)), 1e-4f);
}

TEST(Ops, MatmulAtMatchesReference) {
  Matrix a = random_matrix(9, 13, 5);
  Matrix b = random_matrix(9, 17, 6);
  EXPECT_LT(max_abs_diff(matmul_at(a, b), ref_matmul(a.transposed(), b)),
            1e-4f);
}

TEST(Ops, MatmulBtMatchesReference) {
  Matrix a = random_matrix(13, 9, 7);
  Matrix b = random_matrix(17, 9, 8);
  EXPECT_LT(max_abs_diff(matmul_bt(a, b), ref_matmul(a, b.transposed())),
            1e-4f);
}

// A row of A·Bᵀ has the same bits whether it comes alone, with a few rows
// or inside a tall call, at every dispatch level.
TEST(Ops, MatmulBtRowBitsIndependentOfRowCount) {
  for (simd::Level lv : simd::available_levels()) {
    ASSERT_TRUE(simd::set_level(lv));
    for (int64_t k : {8, 29, 300}) {
      const Matrix a = random_matrix(37, k, 40 + static_cast<uint64_t>(k));
      const Matrix b = random_matrix(23, k, 41 + static_cast<uint64_t>(k));
      const Matrix tall = matmul_bt(a, b);
      for (int64_t rows : {1, 2, 3}) {
        for (int64_t i0 : {int64_t{0}, int64_t{5}, 37 - rows}) {
          Matrix part(rows, k);
          for (int64_t r = 0; r < rows; ++r)
            for (int64_t p = 0; p < k; ++p) part.at(r, p) = a.at(i0 + r, p);
          const Matrix got = matmul_bt(part, b);
          for (int64_t r = 0; r < rows; ++r)
            for (int64_t j = 0; j < b.rows(); ++j)
              ASSERT_EQ(got.at(r, j), tall.at(i0 + r, j))
                  << simd::level_name(lv) << " k=" << k << " rows=" << rows
                  << " row " << i0 + r << " col " << j;
        }
      }
    }
  }
  simd::clear_level_override();
}

TEST(Ops, MatmulAccumulate) {
  Matrix a = random_matrix(5, 6, 9);
  Matrix b = random_matrix(6, 4, 10);
  Matrix c = random_matrix(5, 4, 11);
  Matrix expected = c;
  add_inplace(expected, ref_matmul(a, b));
  matmul(c, a, b, /*accumulate=*/true);
  EXPECT_LT(max_abs_diff(c, expected), 1e-4f);
}

TEST(Ops, AxpyAndScale) {
  Matrix y = random_matrix(4, 4, 12);
  Matrix x = random_matrix(4, 4, 13);
  Matrix expected(4, 4);
  for (int64_t i = 0; i < 16; ++i) expected[i] = y[i] + 2.5f * x[i];
  axpy(y, 2.5f, x);
  EXPECT_LT(max_abs_diff(y, expected), 1e-6f);
  // Scaling by a power of two is exact, so it is checked against axpy's own
  // output bit for bit (the reference above may round differently from the
  // fma-pinned kernel).
  const Matrix before = y;
  scale_inplace(y, 0.5f);
  for (int64_t i = 0; i < 16; ++i) EXPECT_EQ(y[i], before[i] * 0.5f);
}

TEST(Ops, HadamardAndSub) {
  Matrix a = random_matrix(3, 3, 14);
  Matrix b = random_matrix(3, 3, 15);
  Matrix h = a;
  hadamard_inplace(h, b);
  Matrix d = sub(a, b);
  for (int64_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(h[i], a[i] * b[i]);
    EXPECT_FLOAT_EQ(d[i], a[i] - b[i]);
  }
}

TEST(Ops, NormsAndReductions) {
  Matrix m(2, 2);
  m[0] = 3.f; m[1] = 4.f; m[2] = 0.f; m[3] = 0.f;
  EXPECT_DOUBLE_EQ(frobenius_norm(m), 5.0);
  EXPECT_DOUBLE_EQ(sum(m), 7.0);
  EXPECT_DOUBLE_EQ(mean(m), 1.75);
  EXPECT_FLOAT_EQ(abs_max(m), 4.f);
}

TEST(Ops, ColAndRowNorms) {
  Matrix m(2, 3);
  // col 0: (1,2), col 1: (2,0), col 2: (0,3)
  m.at(0, 0) = 1; m.at(1, 0) = 2;
  m.at(0, 1) = 2; m.at(1, 1) = 0;
  m.at(0, 2) = 0; m.at(1, 2) = 3;
  auto cn = col_norms(m);
  EXPECT_NEAR(cn[0], std::sqrt(5.f), 1e-6);
  EXPECT_NEAR(cn[1], 2.f, 1e-6);
  EXPECT_NEAR(cn[2], 3.f, 1e-6);
  auto rn = row_norms(m);
  EXPECT_NEAR(rn[0], std::sqrt(5.f), 1e-6);
  EXPECT_NEAR(rn[1], std::sqrt(13.f), 1e-6);
}

TEST(Ops, ScaleColsAndRows) {
  Matrix m = random_matrix(3, 2, 16);
  Matrix orig = m;
  scale_cols_inplace(m, {2.f, 3.f});
  for (int64_t r = 0; r < 3; ++r) {
    EXPECT_FLOAT_EQ(m.at(r, 0), orig.at(r, 0) * 2.f);
    EXPECT_FLOAT_EQ(m.at(r, 1), orig.at(r, 1) * 3.f);
  }
  m = orig;
  scale_rows_inplace(m, {1.f, 0.f, -1.f});
  for (int64_t c = 0; c < 2; ++c) {
    EXPECT_FLOAT_EQ(m.at(0, c), orig.at(0, c));
    EXPECT_FLOAT_EQ(m.at(1, c), 0.f);
    EXPECT_FLOAT_EQ(m.at(2, c), -orig.at(2, c));
  }
}

// matmul_bt (C = A·Bᵀ, B stored n×k) against the reference product, plain
// and accumulating, on shapes (m, k, n) with few and many rows, short and
// long inner dimensions, and a degenerate 1×1 output.
class MatmulBtShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatmulBtShapeTest, MatchesReference) {
  const auto [m, k, n] = GetParam();
  Matrix a = random_matrix(m, k, 100 + m);
  Matrix b = random_matrix(n, k, 200 + n);
  Matrix ref = ref_matmul(a, b.transposed());
  EXPECT_LT(max_abs_diff(matmul_bt(a, b), ref), 1e-4f);
  // Accumulate variant.
  Matrix c = random_matrix(m, n, 300 + k);
  Matrix expected = c;
  add_inplace(expected, ref);
  matmul_bt(c, a, b, /*accumulate=*/true);
  EXPECT_LT(max_abs_diff(c, expected), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulBtShapeTest,
    ::testing::Values(std::tuple{3, 15, 5}, std::tuple{3, 64, 5},
                      std::tuple{4, 16, 5}, std::tuple{8, 15, 7},
                      std::tuple{8, 16, 7}, std::tuple{16, 64, 32},
                      std::tuple{1, 8, 1}));

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NextBelowBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, GaussianMoments) {
  Rng rng(9);
  const int n = 200000;
  double s1 = 0, s2 = 0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    s1 += g;
    s2 += g * g;
  }
  EXPECT_NEAR(s1 / n, 0.0, 0.02);
  EXPECT_NEAR(s2 / n, 1.0, 0.03);
}

TEST(Rng, FillFloatsMatchesNextFloat) {
  // Same values and the same final state as one next_float() per element,
  // for lengths below, at and across the fill's 64-draw block.
  for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{63}, int64_t{64},
                    int64_t{1000}}) {
    Rng bulk(11), one(11);
    std::vector<float> got(static_cast<size_t>(n));
    bulk.fill_floats(got.data(), n);
    for (int64_t i = 0; i < n; ++i)
      ASSERT_EQ(got[static_cast<size_t>(i)], one.next_float()) << n << " " << i;
    EXPECT_EQ(bulk.next_u64(), one.next_u64()) << n;
  }
}

TEST(Rng, UniformFloatRoundsLikeNextFloat) {
  // Round-to-nearest-even ties at float precision (the top 53 bits hold a
  // 53-bit integer whose ulp at float precision is 2^29 near 2^52), the
  // all-ones draw that rounds up to 1.0f, and the smallest draws.
  const uint64_t top[] = {0,
                          1,
                          (uint64_t{1} << 52) + (uint64_t{1} << 28),
                          (uint64_t{1} << 52) + (uint64_t{3} << 28),
                          (uint64_t{1} << 52) + (uint64_t{1} << 28) + 1,
                          (uint64_t{1} << 53) - 1,
                          (uint64_t{1} << 30) + (uint64_t{1} << 6)};
  for (uint64_t t : top) {
    const uint64_t bits = (t << 11) | 0x7ff;  // low bits are discarded
    const float want =
        static_cast<float>(static_cast<double>(bits >> 11) * 0x1.0p-53);
    EXPECT_EQ(Rng::uniform_float(bits), want) << t;
  }
  EXPECT_EQ(Rng::uniform_float(~uint64_t{0}), 1.f);
}

TEST(Rng, SplitStreamsIndependentish) {
  Rng rng(10);
  const uint64_t s1 = rng.split(), s2 = rng.split();
  EXPECT_NE(s1, s2);
}

}  // namespace
}  // namespace apollo
