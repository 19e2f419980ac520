// INT8 quantization tests: round-trip error bounds, stochastic-rounding
// unbiasedness, block-quantized state semantics and byte accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fault/crc32.h"
#include "quant/quant.h"
#include "tensor/ops.h"

namespace apollo {
namespace {

Matrix random_matrix(int64_t r, int64_t c, uint64_t seed, float scale = 1.f) {
  Matrix m(r, c);
  Rng rng(seed);
  m.fill_gaussian(rng, 0.f, scale);
  return m;
}

TEST(GroupQuantized, RoundTripErrorWithinHalfStep) {
  Matrix m = random_matrix(16, 32, 1);
  GroupQuantized q = GroupQuantized::quantize(m, 128);
  Matrix back = q.dequantize();
  // Per group, error ≤ scale/2 = absmax/254.
  const int64_t group = 128;
  for (int64_t g = 0; g * group < m.size(); ++g) {
    float absmax = 0.f;
    const int64_t lo = g * group, hi = std::min(m.size(), lo + group);
    for (int64_t i = lo; i < hi; ++i)
      absmax = std::max(absmax, std::fabs(m[i]));
    for (int64_t i = lo; i < hi; ++i)
      EXPECT_LE(std::fabs(m[i] - back[i]), absmax / 254.f + 1e-7f);
  }
}

TEST(GroupQuantized, ExactForQuantizedValues) {
  Matrix m(1, 4);
  m[0] = -127.f; m[1] = 0.f; m[2] = 64.f; m[3] = 127.f;
  GroupQuantized q = GroupQuantized::quantize(m, 4);
  Matrix back = q.dequantize();
  for (int64_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(back[i], m[i]);
}

TEST(GroupQuantized, StochasticRoundingUnbiased) {
  // A value exactly halfway between codes must round up ~50% of the time.
  Matrix m(1, 2);
  m[0] = 127.f;  // pins the scale to 1 code unit
  m[1] = 64.5f;
  Rng rng(7);
  int ups = 0;
  const int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    GroupQuantized q = GroupQuantized::quantize_stochastic(m, rng, 2);
    ups += (q.dequantize()[1] > 64.4f);
  }
  const double frac = static_cast<double>(ups) / trials;
  EXPECT_NEAR(frac, 0.5, 0.05);
}

TEST(GroupQuantized, BytesAccounting) {
  Matrix m = random_matrix(16, 16, 2);  // 256 elements, 2 groups of 128
  GroupQuantized q = GroupQuantized::quantize(m, 128);
  EXPECT_EQ(q.bytes(), 256 + 2 * 4);
}

TEST(GroupQuantized, PartialLastGroup) {
  Matrix m = random_matrix(1, 200, 3);  // 1 full group + 72 leftover
  GroupQuantized q = GroupQuantized::quantize(m, 128);
  EXPECT_EQ(q.bytes(), 200 + 2 * 4);
  EXPECT_LT(max_abs_diff(q.dequantize(), m), abs_max(m) / 100.f);
}

TEST(BlockQuantized, SignedRoundTrip) {
  Matrix m = random_matrix(8, 32, 4);
  BlockQuantized b(8, 32, /*signed=*/true);
  b.store(m);
  Matrix back = b.load();
  EXPECT_LT(max_abs_diff(back, m), abs_max(m) / 100.f);
}

TEST(BlockQuantized, UnsignedRoundTrip) {
  Matrix m = random_matrix(8, 32, 5);
  for (int64_t i = 0; i < m.size(); ++i) m[i] = m[i] * m[i];  // non-negative
  BlockQuantized b(8, 32, /*signed=*/false);
  b.store(m);
  Matrix back = b.load();
  // 255 codes over [0, max]: finer than the signed code for non-negatives.
  EXPECT_LT(max_abs_diff(back, m), abs_max(m) / 200.f);
  for (int64_t i = 0; i < back.size(); ++i) EXPECT_GE(back[i], 0.f);
}

TEST(BlockQuantized, FreshStateLoadsZero) {
  BlockQuantized b(4, 4, true);
  Matrix z = b.load();
  // Unquantized fresh state must decode to exactly zero (scale init 0).
  for (int64_t i = 0; i < z.size(); ++i) EXPECT_FLOAT_EQ(z[i], 0.f);
}

TEST(BlockQuantized, BytesAccounting) {
  BlockQuantized b(2, 128, true, 128);  // 256 elems → 2 blocks
  EXPECT_EQ(b.bytes(), 256 + 2 * 4);
}

TEST(GroupQuantized, RequantizeMatchesQuantizeStochasticAtZeroResidual) {
  // With zero residuals and the same RNG stream, in-place streaming
  // requantization is the same arithmetic as quantize_stochastic, and the
  // matrix is left holding exactly the dequantized codes.
  Matrix m = random_matrix(4, 64, 21);
  Matrix m2 = m;
  Rng rng_a(99), rng_b(99);
  GroupQuantized ref = GroupQuantized::quantize_stochastic(m, rng_a, 128);
  GroupQuantized q = GroupQuantized::quantize(m2, 128);  // placeholder codes
  std::vector<float> residuals(static_cast<size_t>(q.num_groups()), 0.f);
  q.requantize_stochastic(m2, residuals.data(), rng_b);
  EXPECT_EQ(q.codes(), ref.codes());
  EXPECT_EQ(q.scales(), ref.scales());
  Matrix back = ref.dequantize();
  for (int64_t i = 0; i < m2.size(); ++i) EXPECT_FLOAT_EQ(m2[i], back[i]);
}

TEST(GroupQuantized, RequantizeResidualIsGroupMeanRoundingError) {
  Matrix m = random_matrix(1, 200, 22);  // full group + partial group
  Matrix x = m;                          // pre-requant target values
  GroupQuantized q = GroupQuantized::quantize(m, 128);
  std::vector<float> residuals(static_cast<size_t>(q.num_groups()), 0.f);
  Rng rng(33);
  q.requantize_stochastic(m, residuals.data(), rng);
  for (int64_t g = 0; g < q.num_groups(); ++g) {
    const int64_t lo = g * 128, hi = std::min<int64_t>(m.size(), lo + 128);
    float err = 0.f;
    for (int64_t i = lo; i < hi; ++i) err += x[i] - m[i];
    EXPECT_NEAR(residuals[static_cast<size_t>(g)],
                err / static_cast<float>(hi - lo), 1e-6f);
  }
}

TEST(GroupQuantized, RequantizeUnbiasedAcrossSeeds) {
  // Statistical unbiasedness of the streaming requantizer: averaged over
  // many independent RNG streams, E[dequant] must equal the input value —
  // the property that lets sub-code-unit optimizer updates survive.
  Matrix m(1, 128);
  m[0] = 1.27f;  // pins one code unit to 0.01
  for (int64_t i = 1; i < m.size(); ++i) m[i] = 0.503f;  // between codes
  const int trials = 400;
  double sum = 0;
  for (int t = 0; t < trials; ++t) {
    Matrix work = m;
    GroupQuantized q = GroupQuantized::quantize(work, 128);
    std::vector<float> residuals(static_cast<size_t>(q.num_groups()), 0.f);
    Rng rng(1000 + static_cast<uint64_t>(t));
    q.requantize_stochastic(work, residuals.data(), rng);
    sum += work[1];
  }
  EXPECT_NEAR(sum / trials, 0.503, 0.002);
}

TEST(Int8Codec, RoundTripGoldenFingerprint) {
  // One CRC-32 over the round trips of the three INT8 codes: BlockQuantized's
  // signed (Adam's M) and square-root (V) codes, and GroupQuantized's
  // round-to-nearest weights. Recorded when BlockQuantized still had a
  // whole-matrix copy of its per-block codec; the codec does no multiply-add,
  // so fma contraction cannot move these bits in any build.
  const Matrix m = random_matrix(3, 300, 23);  // a partial last block
  Matrix sq = m;
  for (int64_t i = 0; i < sq.size(); ++i) sq[i] = m[i] * m[i];
  BlockQuantized s(3, 300, /*signed=*/true, 128);
  BlockQuantized u(3, 300, /*signed=*/false, 128);
  s.store(m);
  u.store(sq);
  const Matrix outs[] = {s.load(), u.load(),
                         GroupQuantized::quantize(m, 128).dequantize()};
  uint32_t crc = fault::kCrc32Init;
  for (const Matrix& out : outs)
    crc = fault::crc32_update(crc, out.data(),
                              static_cast<size_t>(out.size()) * sizeof(float));
  EXPECT_EQ(fault::crc32_final(crc), 0x49793cd0u);
}

TEST(Int8Codec, NanEncodesAsZero) {
  // A NaN gets code 0 (converting it to int8_t is undefined), is skipped by
  // the block's absmax, and leaves every other code as it was.
  const Matrix m = random_matrix(1, 100, 25);
  Matrix with_nan = m;
  with_nan[17] = std::nanf("");
  BlockQuantized ref(1, 100, /*signed=*/true), b(1, 100, /*signed=*/true);
  ref.store(m);
  b.store(with_nan);
  const Matrix want = ref.load(), got = b.load();
  for (int64_t i = 0; i < m.size(); ++i)
    EXPECT_EQ(got[i], i == 17 ? 0.f : want[i]) << "element " << i;

  const GroupQuantized gref = GroupQuantized::quantize(m, 128);
  const GroupQuantized g = GroupQuantized::quantize(with_nan, 128);
  for (size_t i = 0; i < g.codes().size(); ++i)
    EXPECT_EQ(g.codes()[i], i == 17 ? 0 : gref.codes()[i]) << "element " << i;
  EXPECT_EQ(g.scales(), gref.scales());
}

TEST(BlockQuantized, RepeatedStoreLoadStable) {
  // store(load()) must be a fixed point (codes already representable).
  Matrix m = random_matrix(4, 64, 6);
  BlockQuantized b(4, 64, true);
  b.store(m);
  Matrix once = b.load();
  b.store(once);
  Matrix twice = b.load();
  EXPECT_LT(max_abs_diff(once, twice), 1e-6f);
}

}  // namespace
}  // namespace apollo
