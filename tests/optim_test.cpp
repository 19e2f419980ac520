// Baseline-optimizer tests: single-step algebra against hand calculations,
// state accounting, and the structural properties each method promises.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/svd.h"
#include "optim/adam_mini.h"
#include "optim/adamw.h"
#include "optim/galore.h"
#include "optim/lowrank.h"
#include "optim/norm_limiter.h"
#include "optim/sgd.h"
#include "tensor/ops.h"

namespace apollo {
namespace {

// A free-standing parameter with a fixed gradient.
std::unique_ptr<nn::Parameter> make_param(int64_t rows, int64_t cols,
                                          uint64_t seed, float gscale = 0.1f,
                                          bool matrix = true) {
  auto p = std::make_unique<nn::Parameter>("w", rows, cols, matrix);
  Rng rng(seed);
  p->value.fill_gaussian(rng, 0.f, 1.f);
  p->grad.fill_gaussian(rng, 0.f, gscale);
  return p;
}

TEST(AdamW, FirstStepIsSignedLr) {
  // With bias correction, step 1 moves each weight by ≈ lr·sign(g).
  auto p = make_param(3, 4, 1);
  Matrix before = p->value;
  optim::AdamW opt;
  opt.set_lr(0.01f);
  opt.step({p.get()});
  for (int64_t i = 0; i < p->value.size(); ++i) {
    const float delta = p->value[i] - before[i];
    EXPECT_NEAR(delta, -0.01f * (p->grad[i] > 0 ? 1.f : -1.f), 1e-4f);
  }
}

TEST(AdamW, HandComputedTwoSteps) {
  // Scalar hand check over two steps with constant gradient g = 0.5.
  auto p = std::make_unique<nn::Parameter>("w", 1, 1);
  p->value[0] = 1.f;
  p->grad[0] = 0.5f;
  optim::AdamHyper hp;
  optim::AdamW opt(hp);
  opt.set_lr(0.1f);
  opt.step({p.get()});
  // m=0.05, v=0.00025; mhat=0.5, vhat=0.25 → step = 0.1·0.5/0.5 = 0.1
  EXPECT_NEAR(p->value[0], 0.9f, 1e-4f);
  opt.step({p.get()});
  EXPECT_NEAR(p->value[0], 0.8f, 1e-3f);  // constant gradient keeps ratio 1
}

TEST(AdamW, WeightDecayDecoupled) {
  auto p = std::make_unique<nn::Parameter>("w", 1, 1);
  p->value[0] = 2.f;
  p->grad[0] = 0.f;
  optim::AdamHyper hp;
  hp.weight_decay = 0.1f;
  optim::AdamW opt(hp);
  opt.set_lr(0.5f);
  opt.step({p.get()});
  // Zero gradient ⇒ pure decay: w ← w − lr·wd·w = 2 − 0.5·0.1·2 = 1.9
  EXPECT_NEAR(p->value[0], 1.9f, 1e-5f);
}

TEST(AdamW, StateBytesIsTwoFloatsPerParam) {
  auto p = make_param(8, 16, 2);
  optim::AdamW opt;
  opt.step({p.get()});
  EXPECT_EQ(opt.state_bytes(), 2 * 8 * 16 * 4);
}

TEST(Sgd, PlainStep) {
  auto p = std::make_unique<nn::Parameter>("w", 1, 2);
  p->value[0] = 1.f; p->value[1] = -1.f;
  p->grad[0] = 0.5f; p->grad[1] = -0.25f;
  optim::Sgd opt;
  opt.set_lr(0.1f);
  opt.step({p.get()});
  EXPECT_NEAR(p->value[0], 0.95f, 1e-6f);
  EXPECT_NEAR(p->value[1], -0.975f, 1e-6f);
  EXPECT_EQ(opt.state_bytes(), 0);  // SGD truly holds no state
}

TEST(Sgd, MomentumAccumulates) {
  auto p = std::make_unique<nn::Parameter>("w", 1, 1);
  p->value[0] = 0.f;
  p->grad[0] = 1.f;
  optim::Sgd opt(0.9f);
  opt.set_lr(0.1f);
  opt.step({p.get()});
  EXPECT_NEAR(p->value[0], -0.1f, 1e-6f);   // buf = 1
  opt.step({p.get()});
  EXPECT_NEAR(p->value[0], -0.29f, 1e-6f);  // buf = 1.9
  EXPECT_EQ(opt.state_bytes(), 4);
}

TEST(AdamMini, MatchesAdamWhenRowIsUniform) {
  // If all |g| in a row are equal, the row-mean V equals element-wise V and
  // Adam-mini reproduces AdamW exactly.
  auto p = std::make_unique<nn::Parameter>("w", 2, 4);
  auto q = std::make_unique<nn::Parameter>("w", 2, 4);
  for (int64_t i = 0; i < 8; ++i) {
    p->value[i] = q->value[i] = 1.f;
    const float g = (i < 4 ? 0.5f : -0.25f) * ((i % 2) ? 1.f : -1.f);
    p->grad[i] = q->grad[i] = g;
  }
  optim::AdamMini mini;
  optim::AdamW adam;
  mini.set_lr(0.01f);
  adam.set_lr(0.01f);
  mini.step({p.get()});
  adam.step({q.get()});
  EXPECT_LT(max_abs_diff(p->value, q->value), 1e-5f);
}

TEST(AdamMini, StateIsHalfOfAdam) {
  auto p = make_param(8, 32, 3);
  optim::AdamMini opt;
  opt.step({p.get()});
  // M: 8·32 floats, V: 8 floats.
  EXPECT_EQ(opt.state_bytes(), (8 * 32 + 8) * 4);
}

TEST(Adam8bit, TracksAdamW) {
  auto p = make_param(4, 64, 4);
  auto q = std::make_unique<nn::Parameter>("w", 4, 64);
  q->value = p->value;
  q->grad = p->grad;
  optim::AdamW a8({}, optim::MomentPrecision::kInt8);
  optim::AdamW a32;
  a8.set_lr(0.01f);
  a32.set_lr(0.01f);
  for (int s = 0; s < 10; ++s) {
    a8.step({p.get()});
    a32.step({q.get()});
  }
  // Per-element trajectories can diverge where m ≈ 0 (a sign flip under
  // quantization is genuine 8-bit Adam behaviour), but the bulk must track:
  // mean deviation small relative to the ~0.1 total weight movement.
  double mean_dev = 0;
  for (int64_t i = 0; i < p->value.size(); ++i)
    mean_dev += std::fabs(p->value[i] - q->value[i]);
  mean_dev /= static_cast<double>(p->value.size());
  EXPECT_LT(mean_dev, 0.02);
  EXPECT_LT(max_abs_diff(p->value, q->value), 0.15f);
}

TEST(Adam8bit, StateIsOneQuarterOfAdamW) {
  auto p = make_param(4, 128, 5);
  optim::AdamW opt({}, optim::MomentPrecision::kInt8);
  opt.step({p.get()});
  const int64_t elems = 2 * 4 * 128;
  EXPECT_EQ(opt.state_bytes(), elems + (elems / 128) * 4);
  EXPECT_LT(opt.state_bytes(), elems * 4 / 3);  // ≪ fp32 moments
}

TEST(NormLimiter, CapsGrowth) {
  optim::NormGrowthLimiter nl(1.01f);
  Matrix g(1, 4);
  g.fill(1.f);  // norm 2
  nl.apply(g);
  EXPECT_NEAR(frobenius_norm(g), 2.0, 1e-6);
  g.fill(10.f);  // norm 20 — growth 10× > γ
  nl.apply(g);
  EXPECT_NEAR(frobenius_norm(g), 2.0 * 1.01, 1e-4);
  // Shrinking is always allowed.
  g.fill(0.01f);
  nl.apply(g);
  EXPECT_NEAR(frobenius_norm(g), 0.02, 1e-6);
}

TEST(GaLore, SvdStepReducesLossDirection) {
  // The back-projected update must be positively aligned with the gradient.
  auto p = make_param(8, 24, 6);
  Matrix before = p->value;
  optim::GaloreConfig cfg;
  cfg.rank = 4;
  cfg.scale = 1.f;
  auto opt = optim::GaLore::galore(cfg);
  opt->set_lr(0.01f);
  opt->step({p.get()});
  Matrix delta = sub(p->value, before);
  double dot = 0;
  for (int64_t i = 0; i < delta.size(); ++i)
    dot += static_cast<double>(delta[i]) * p->grad[i];
  EXPECT_LT(dot, 0.0) << "update not a descent direction";
}

TEST(GaLore, StateMatchesTable1Formula) {
  const int64_t m = 8, n = 24, r = 4;
  auto p = make_param(m, n, 7);
  auto opt = optim::GaLore::galore({});
  optim::GaloreConfig cfg;
  cfg.rank = r;
  opt = optim::GaLore::galore(cfg);
  opt->step({p.get()});
  // SVD GaLore: projector m·r + moments 2·(r·n); +8 bytes seed bookkeeping.
  EXPECT_EQ(opt->state_bytes(), (m * r + 2 * r * n) * 4 + 8);
}

TEST(GaLore, RandomProjectorStoresNoMatrix) {
  const int64_t m = 8, n = 24, r = 4;
  auto p = make_param(m, n, 8);
  optim::GaloreConfig cfg;
  cfg.rank = r;
  auto opt = optim::GaLore::flora(cfg);
  opt->step({p.get()});
  // Flora: moments only (2·r·n) + the 8-byte seed. No m·r projector.
  EXPECT_EQ(opt->state_bytes(), 2 * r * n * 4 + 8);
}

TEST(GaLore, WideMatricesProjectTheOtherSide) {
  // rows > cols: the projector compresses columns; state follows max-dim.
  const int64_t m = 24, n = 8, r = 4;
  auto p = make_param(m, n, 9);
  optim::GaloreConfig cfg;
  cfg.rank = r;
  auto opt = optim::GaLore::flora(cfg);
  opt->step({p.get()});
  EXPECT_EQ(opt->state_bytes(), 2 * r * m * 4 + 8);
}

TEST(GaLore, OneDimFallsBackToDenseAdam) {
  auto p = make_param(1, 16, 10, 0.1f, /*matrix=*/false);
  auto opt = optim::GaLore::galore({});
  opt->step({p.get()});
  EXPECT_EQ(opt->state_bytes(), 2 * 16 * 4);
}

TEST(GaLore, DeterministicAcrossRuns) {
  auto run = [] {
    auto p = make_param(8, 24, 11);
    optim::GaloreConfig cfg;
    cfg.rank = 4;
    cfg.seed = 77;
    auto opt = optim::GaLore::flora(cfg);
    opt->set_lr(0.01f);
    for (int i = 0; i < 5; ++i) opt->step({p.get()});
    return p->value;
  };
  EXPECT_TRUE(run() == run());
}

TEST(Fira, ResidualMakesUpdateFullRank) {
  // GaLore's update lives in a rank-r subspace; Fira's must not.
  auto p = make_param(8, 24, 12);
  auto q = std::make_unique<nn::Parameter>("w", 8, 24);
  q->value = p->value;
  q->grad = p->grad;
  optim::GaloreConfig cfg;
  cfg.rank = 2;
  cfg.scale = 1.f;
  auto galore = optim::GaLore::galore(cfg);
  auto fira = optim::GaLore::fira(cfg);
  galore->set_lr(0.01f);
  fira->set_lr(0.01f);
  galore->step({p.get()});
  fira->step({q.get()});
  // Different updates (the residual is non-zero for a random gradient).
  EXPECT_GT(max_abs_diff(p->value, q->value), 1e-6f);
  EXPECT_EQ(fira->name(), "Fira");
}

TEST(Lora, BackboneStaysFrozen) {
  // With zero-init B, the first recompose must reproduce W0 exactly, and
  // the trained weight must always equal W0 + B·A (rank-r delta).
  auto p = make_param(8, 16, 13);
  Matrix w0 = p->value;
  optim::AdapterConfig cfg;
  cfg.kind = optim::AdapterKind::kLora;
  cfg.rank = 2;
  optim::LowRankAdapter opt(cfg);
  opt.set_lr(0.f);  // no movement: W must equal W0 exactly
  opt.step({p.get()});
  EXPECT_LT(max_abs_diff(p->value, w0), 1e-6f);
}

TEST(Lora, DeltaHasRankAtMostR) {
  auto p = make_param(8, 16, 14);
  Matrix w0 = p->value;
  optim::AdapterConfig cfg;
  cfg.kind = optim::AdapterKind::kLora;
  cfg.rank = 2;
  optim::LowRankAdapter opt(cfg);
  opt.set_lr(0.05f);
  Rng rng(15);
  for (int s = 0; s < 5; ++s) {
    p->grad.fill_gaussian(rng, 0.f, 0.1f);
    opt.step({p.get()});
  }
  Matrix delta = sub(p->value, w0);
  // Rank ≤ 2 ⇔ singular values beyond the 2nd are ~0.
  auto d = svd(delta);
  for (size_t i = 2; i < d.sigma.size(); ++i)
    EXPECT_LT(d.sigma[i], 1e-4f * d.sigma[0] + 1e-6f);
}

TEST(Factorized, WeightIsExactlyRankR) {
  auto p = make_param(8, 16, 16);
  optim::AdapterConfig cfg;
  cfg.kind = optim::AdapterKind::kFactorized;
  cfg.rank = 3;
  optim::LowRankAdapter opt(cfg);
  opt.set_lr(0.01f);
  opt.step({p.get()});
  auto d = svd(p->value);
  for (size_t i = 3; i < d.sigma.size(); ++i)
    EXPECT_LT(d.sigma[i], 1e-4f * d.sigma[0] + 1e-6f);
}

TEST(Relora, MergeRaisesDeltaRank) {
  auto p = make_param(8, 16, 17);
  Matrix w0 = p->value;
  optim::AdapterConfig cfg;
  cfg.kind = optim::AdapterKind::kRelora;
  cfg.rank = 2;
  cfg.merge_freq = 3;
  optim::LowRankAdapter opt(cfg);
  opt.set_lr(0.05f);
  Rng rng(18);
  for (int s = 0; s < 9; ++s) {  // 3 merge cycles
    p->grad.fill_gaussian(rng, 0.f, 0.1f);
    opt.step({p.get()});
  }
  // After merges, the cumulative delta exceeds rank 2.
  auto d = svd(sub(p->value, w0));
  EXPECT_GT(d.sigma[2], 1e-5f * d.sigma[0]);
  EXPECT_EQ(opt.name(), "ReLoRA");
}

TEST(Dora, TrainsMagnitudesAndDirections) {
  auto p = make_param(8, 16, 19);
  optim::AdapterConfig cfg;
  cfg.kind = optim::AdapterKind::kDora;
  cfg.rank = 2;
  optim::LowRankAdapter opt(cfg);
  opt.set_lr(0.01f);
  Matrix before = p->value;
  opt.step({p.get()});
  EXPECT_GT(max_abs_diff(p->value, before), 0.f);
  EXPECT_EQ(opt.name(), "DoRA");
}

TEST(Optimizers, NamesAreStable) {
  EXPECT_EQ(optim::AdamW().name(), "AdamW");
  EXPECT_EQ(optim::Sgd().name(), "SGD");
  EXPECT_EQ(optim::Sgd(0.9f).name(), "SGD-momentum");
  EXPECT_EQ(optim::AdamMini().name(), "Adam-mini");
  EXPECT_EQ(optim::AdamW({}, optim::MomentPrecision::kInt8).name(),
            "8-bit Adam");
  EXPECT_EQ(optim::GaLore::galore({})->name(), "GaLore");
  EXPECT_EQ(optim::GaLore::galore_8bit({})->name(), "8-bit GaLore");
}

}  // namespace
}  // namespace apollo
