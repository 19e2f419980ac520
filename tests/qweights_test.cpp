// QuantizedWeightStore (Q-APOLLO weight path) tests.
#include <gtest/gtest.h>

#include <iterator>

#include "core/quantized_weights.h"
#include "fault/crc32.h"
#include "linalg/svd.h"
#include "optim/galore.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"

namespace apollo {
namespace {

std::unique_ptr<nn::Parameter> make_param(int64_t rows, int64_t cols,
                                          uint64_t seed,
                                          bool matrix = true) {
  auto p = std::make_unique<nn::Parameter>("w", rows, cols, matrix);
  Rng rng(seed);
  p->value.fill_gaussian(rng, 0.f, 0.1f);
  return p;
}

TEST(QuantizedWeightStore, ConstructionQuantizesImmediately) {
  auto p = make_param(8, 128, 1);
  Matrix original = p->value;
  core::QuantizedWeightStore store({p.get()}, 5);
  // Visible weights now equal the dequantized INT8 values: close to, but
  // generally not identical to, the fp originals.
  EXPECT_LT(max_abs_diff(p->value, original), abs_max(original) / 100.f);
}

TEST(QuantizedWeightStore, RoundTripIsStable) {
  auto p = make_param(8, 128, 2);
  core::QuantizedWeightStore store({p.get()}, 6);
  Matrix after_init = p->value;
  // Without any update, requantize→dequantize must be a fixed point up to
  // stochastic-rounding jitter of at most one code unit.
  store.requantize_from_params();
  EXPECT_LT(max_abs_diff(p->value, after_init),
            abs_max(after_init) / 60.f);
}

TEST(QuantizedWeightStore, AbsorbsUpdates) {
  auto p = make_param(8, 128, 3);
  core::QuantizedWeightStore store({p.get()}, 7);
  Matrix before = p->value;
  // Apply a large fp update, requantize: the store must follow.
  for (int64_t i = 0; i < p->value.size(); ++i) p->value[i] += 0.5f;
  store.requantize_from_params();
  const double moved = mean(sub(p->value, before));
  EXPECT_NEAR(moved, 0.5, 0.02);
}

TEST(QuantizedWeightStore, StochasticRoundingUnbiasedOverSteps) {
  // A sub-code-unit update must survive *in expectation* across repeated
  // quantize cycles (the reason Q-GaLore uses stochastic rounding).
  auto p = make_param(1, 256, 4);
  p->value.fill(0.5f);
  p->value[0] = 1.27f;  // pins scale so one code ≈ 0.01
  core::QuantizedWeightStore store({p.get()}, 8);
  const double start = mean(p->value);
  double drift = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    store.dequantize_into_params();
    for (int64_t i = 1; i < p->value.size(); ++i)
      p->value[i] += 0.002f;  // 1/5 of a code unit per step
    store.requantize_from_params();
  }
  drift = mean(p->value) - start;
  // 200 steps × 0.002 ≈ 0.4 expected movement (minus the pinned element).
  EXPECT_NEAR(drift, 0.4, 0.08);
}

TEST(QuantizedWeightStore, OneDimParamsStayFp32) {
  auto gain = make_param(1, 64, 5, /*matrix=*/false);
  Matrix original = gain->value;
  core::QuantizedWeightStore store({gain.get()}, 9);
  EXPECT_TRUE(gain->value == original);  // untouched, bit-exact
  store.requantize_from_params();
  EXPECT_TRUE(gain->value == original);
}

TEST(QuantizedWeightStore, WeightBytesAccounting) {
  auto w = make_param(8, 128, 6);           // 1024 elems → 8 groups
  auto gain = make_param(1, 16, 7, false);  // fp32
  core::QuantizedWeightStore store({w.get(), gain.get()}, 10);
  // INT8 codes + group scales + per-group error-feedback residuals + fp32
  // gain (residuals persist across steps, so they are weight memory).
  EXPECT_EQ(store.weight_bytes(), 1024 + 8 * 4 + 8 * 4 + 16 * 4);
}

TEST(QuantizedWeightStore, RequantizationIsSlotOrderIndependent) {
  // Each slot owns a private RNG stream split in slot order at
  // construction, so requantizing slots in reverse order must produce
  // bit-identical weights to slot order — the property that makes the
  // fused path (backward completion order) match the classic loop.
  auto a0 = make_param(8, 128, 20);
  auto b0 = make_param(4, 256, 21);
  auto a1 = std::make_unique<nn::Parameter>("w", 8, 128, true);
  auto b1 = std::make_unique<nn::Parameter>("w", 4, 256, true);
  a1->value = a0->value;
  b1->value = b0->value;
  core::QuantizedWeightStore fwd({a0.get(), b0.get()}, 11);
  core::QuantizedWeightStore rev({a1.get(), b1.get()}, 11);
  // Same fp32 update on both copies.
  for (auto* p : {a0.get(), a1.get()})
    for (int64_t i = 0; i < p->value.size(); ++i) p->value[i] += 0.003f;
  for (auto* p : {b0.get(), b1.get()})
    for (int64_t i = 0; i < p->value.size(); ++i) p->value[i] -= 0.002f;
  fwd.requantize_param(0);
  fwd.requantize_param(1);
  rev.requantize_param(1);
  rev.requantize_param(0);
  EXPECT_TRUE(a0->value == a1->value);
  EXPECT_TRUE(b0->value == b1->value);
}

// 7b-proxy weight shapes (attention 128×128, MLP 344×128 and 128×344,
// embedding 256×128) through 20 perturb-and-requantize steps: one CRC-32
// over the live weights after every step, so each step's codes and scales,
// and through them the residuals and RNG streams the earlier steps left,
// are pinned. Each perturbation is a uniform scaled by a power of two, so
// its product is exact and the sum rounds the same whether or not the
// compiler fuses it into an fma (builds with and without -march=native).
uint32_t requantization_fingerprint() {
  const int64_t shapes[][2] = {{128, 128}, {344, 128}, {128, 344}, {256, 128}};
  std::vector<std::unique_ptr<nn::Parameter>> owned;
  nn::ParamList params;
  for (size_t i = 0; i < std::size(shapes); ++i) {
    owned.push_back(make_param(shapes[i][0], shapes[i][1], 40 + i));
    params.push_back(owned.back().get());
  }
  core::QuantizedWeightStore store(params, 0x5eed);
  Rng noise(41);
  uint32_t crc = fault::kCrc32Init;
  for (int step = 0; step < 20; ++step) {
    for (nn::Parameter* p : params)
      for (int64_t i = 0; i < p->value.size(); ++i)
        p->value[i] += (noise.next_float() - 0.5f) * 0x1p-8f;
    for (int slot = 0; slot < static_cast<int>(params.size()); ++slot)
      store.requantize_param(slot);
    for (const nn::Parameter* p : params)
      crc = fault::crc32_update(crc, p->value.data(),
                                static_cast<size_t>(p->value.size()) * 4);
  }
  return fault::crc32_final(crc);
}

TEST(QuantizedWeightStore, RequantizationGoldenFingerprint) {
  // Pins the exact bits of stochastic requantization with error feedback.
  // Every dispatch level must reproduce the same value.
  for (simd::Level lv : simd::available_levels()) {
    ASSERT_TRUE(simd::set_level(lv));
    EXPECT_EQ(requantization_fingerprint(), 0x73292a45u)
        << "level " << simd::level_name(lv);
  }
  simd::clear_level_override();
}

TEST(Fira, SvdResidualOrthogonalToSubspace) {
  // With the orthonormal SVD projector, Fira's residual G − PᵀPG must be
  // orthogonal to the back-projected low-rank component.
  Matrix g(8, 24);
  Rng rng(11);
  g.fill_gaussian(rng);
  Matrix p = svd_left_projector(g, 3);
  Matrix low = project_back(project(g, p, ProjectionSide::kLeft), p,
                            ProjectionSide::kLeft);
  Matrix residual = sub(g, low);
  double dot = 0;
  for (int64_t i = 0; i < g.size(); ++i)
    dot += static_cast<double>(residual[i]) * low[i];
  EXPECT_NEAR(dot / (frobenius_norm(residual) * frobenius_norm(low)), 0.0,
              1e-3);
}

TEST(GaLore8bit, StateBytesBelowFp32GaLore) {
  auto p1 = make_param(32, 128, 12);
  auto p2 = make_param(32, 128, 12);
  optim::GaloreConfig cfg;
  cfg.rank = 8;
  auto fp = optim::GaLore::galore(cfg);
  auto q8 = optim::GaLore::galore_8bit(cfg);
  fp->set_lr(1e-3f);
  q8->set_lr(1e-3f);
  Rng rng(13);
  for (int s = 0; s < 10; ++s) {
    p1->grad.fill_gaussian(rng, 0.f, 0.1f);
    p2->grad = p1->grad;
    fp->step({p1.get()});
    q8->step({p2.get()});
  }
  EXPECT_LT(q8->state_bytes(), fp->state_bytes());
  // The 8-bit moments persist across steps, so the 8-bit run tracks the
  // fp32 one (which moves ~2e-3 over these steps) to quantization error.
  EXPECT_LT(max_abs_diff(p1->value, p2->value), 2e-4f);
}

TEST(GaLore8bit, TrainsOnRepeatedSteps) {
  auto p = make_param(32, 128, 14);
  optim::GaloreConfig cfg;
  cfg.rank = 8;
  auto opt = optim::GaLore::galore_8bit(cfg);
  opt->set_lr(1e-2f);
  Rng rng(15);
  Matrix start = p->value;
  for (int s = 0; s < 10; ++s) {
    p->grad.fill_gaussian(rng, 0.f, 0.1f);
    opt->step({p.get()});
  }
  EXPECT_GT(max_abs_diff(p->value, start), 1e-3f);
}

}  // namespace
}  // namespace apollo
