// Edge cases and failure injection: degenerate shapes, zero/huge gradients,
// rank boundaries — the inputs that break optimizers in production.
#include <gtest/gtest.h>

#include <cmath>

#include "core/apollo.h"
#include "linalg/svd.h"
#include "optim/adamw.h"
#include "optim/galore.h"
#include "optim/norm_limiter.h"
#include "tensor/ops.h"

namespace apollo {
namespace {

bool all_finite(const Matrix& m) {
  for (int64_t i = 0; i < m.size(); ++i)
    if (!std::isfinite(m[i])) return false;
  return true;
}

std::unique_ptr<nn::Parameter> make_param(int64_t rows, int64_t cols,
                                          float gval) {
  auto p = std::make_unique<nn::Parameter>("w", rows, cols);
  p->value.fill(1.f);
  p->grad.fill(gval);
  return p;
}

TEST(Edge, ZeroGradientProducesNoNaNs) {
  using MakeFn = std::function<std::unique_ptr<optim::Optimizer>()>;
  const std::vector<MakeFn> makes = {
      [] { return std::make_unique<optim::AdamW>(); },
      [] { return core::Apollo::standard({}); },
      [] { return core::Apollo::mini(); },
      [] {
        optim::GaloreConfig c;
        c.rank = 2;
        return optim::GaLore::fira(c);
      }};
  for (const auto& make : makes) {
    auto p = make_param(4, 16, 0.f);
    auto opt = make();
    opt->set_lr(0.01f);
    for (int s = 0; s < 3; ++s) opt->step({p.get()});
    EXPECT_TRUE(all_finite(p->value)) << opt->name();
    // Zero gradient + zero weight decay ⇒ weights unchanged.
    for (int64_t i = 0; i < p->value.size(); ++i)
      EXPECT_FLOAT_EQ(p->value[i], 1.f) << opt->name();
  }
}

TEST(Edge, HugeGradientStaysFinite) {
  auto p = make_param(4, 16, 1e18f);
  auto opt = core::Apollo::standard({});
  opt->set_lr(0.01f);
  opt->step({p.get()});
  EXPECT_TRUE(all_finite(p->value));
}

TEST(Edge, TinyGradientStaysFinite) {
  auto p = make_param(4, 16, 1e-30f);
  auto opt = core::Apollo::mini();
  opt->set_lr(0.01f);
  for (int s = 0; s < 3; ++s) opt->step({p.get()});
  EXPECT_TRUE(all_finite(p->value));
}

TEST(Edge, OneByOneWeight) {
  auto p = make_param(1, 1, 0.5f);
  // rank 1 == min dim: APOLLO still runs (rank-1 space of a scalar).
  core::ApolloConfig cfg;
  cfg.rank = 1;
  auto opt = core::Apollo::standard(cfg);
  opt->set_lr(0.1f);
  opt->step({p.get()});
  EXPECT_TRUE(all_finite(p->value));
  EXPECT_LT(p->value[0], 1.f);  // moved downhill
}

TEST(Edge, RankAboveMinDimFallsBackToDense) {
  auto p = make_param(2, 64, 0.1f);
  core::ApolloConfig cfg;
  cfg.rank = 8;  // > min dim 2
  auto opt = core::Apollo::standard(cfg);
  opt->set_lr(0.01f);
  opt->step({p.get()});
  // Dense fallback: AdamW state = 2 · 2 · 64 floats.
  EXPECT_EQ(opt->state_bytes(), 2 * 2 * 64 * 4);
}

TEST(Edge, SquareMatrixProjectsLeft) {
  auto p = make_param(16, 16, 0.1f);
  core::ApolloConfig cfg;
  cfg.rank = 4;
  auto opt = core::Apollo::standard(cfg);
  opt->set_lr(0.01f);
  opt->step({p.get()});
  // Channels along columns for square weights (m ≤ n tie → left).
  EXPECT_EQ(opt->last_scaling(0)->size(), 16u);
}

TEST(Edge, SvdOfRankDeficientMatrix) {
  // Rank-1 matrix: trailing singular values must come out ≈ 0, factors
  // finite and orthonormal for the leading component.
  Matrix u(6, 1), v(1, 9);
  Rng rng(1);
  u.fill_gaussian(rng);
  v.fill_gaussian(rng);
  Matrix a = matmul(u, v);
  SvdResult d = svd(a);
  EXPECT_GT(d.sigma[0], 0.f);
  for (size_t i = 1; i < d.sigma.size(); ++i)
    EXPECT_LT(d.sigma[i], 1e-4f * d.sigma[0] + 1e-6f);
  EXPECT_TRUE(all_finite(d.u));
  EXPECT_TRUE(all_finite(d.v));
}

TEST(Edge, SvdOfZeroMatrix) {
  Matrix a(5, 7);
  SvdResult d = svd(a);
  for (float s : d.sigma) EXPECT_FLOAT_EQ(s, 0.f);
  EXPECT_TRUE(all_finite(d.u));
}

TEST(Edge, NormLimiterFirstStepPassesThrough) {
  optim::NormGrowthLimiter nl(1.01f);
  Matrix g(1, 4);
  g.fill(100.f);  // huge first step: nothing to compare against
  nl.apply(g);
  EXPECT_FLOAT_EQ(g[0], 100.f);
}

TEST(Edge, NormLimiterZeroThenNonzero) {
  optim::NormGrowthLimiter nl(1.01f);
  Matrix g(1, 4);
  nl.apply(g);  // zero norm recorded
  g.fill(1.f);
  nl.apply(g);  // growth from 0: must not divide by zero or clamp to 0
  EXPECT_TRUE(all_finite(g));
}

TEST(Edge, ApolloManyParamsIndependentStates) {
  // Two parameters of different shapes must keep independent moments and
  // independent projection seeds.
  auto p1 = make_param(4, 32, 0.1f);
  auto p2 = make_param(8, 8, -0.2f);
  core::ApolloConfig cfg;
  cfg.rank = 2;
  auto opt = core::Apollo::standard(cfg);
  opt->set_lr(0.01f);
  for (int s = 0; s < 4; ++s) opt->step({p1.get(), p2.get()});
  EXPECT_TRUE(all_finite(p1->value));
  EXPECT_TRUE(all_finite(p2->value));
  // 2·n·r floats each + 12 B bookkeeping each.
  EXPECT_EQ(opt->state_bytes(), (2 * 32 * 2 + 2 * 8 * 2) * 4 + 2 * 12);
}

TEST(Edge, GaloreRefreshOnExactBoundary) {
  auto p = make_param(8, 24, 0.1f);
  optim::GaloreConfig cfg;
  cfg.rank = 2;
  cfg.update_freq = 3;
  auto opt = optim::GaLore::galore(cfg);
  opt->set_lr(0.01f);
  Rng rng(2);
  for (int s = 0; s < 7; ++s) {  // refreshes at local steps 0, 3, 6
    p->grad.fill_gaussian(rng, 0.f, 0.1f);
    opt->step({p.get()});
  }
  EXPECT_TRUE(all_finite(p->value));
}

TEST(Edge, LrZeroFreezesApollo) {
  auto p = make_param(4, 16, 0.3f);
  auto opt = core::Apollo::standard({});
  opt->set_lr(0.f);
  opt->step({p.get()});
  for (int64_t i = 0; i < p->value.size(); ++i)
    EXPECT_FLOAT_EQ(p->value[i], 1.f);
}

TEST(Edge, NegativeAndPositiveGradientsSymmetric) {
  // APOLLO's scaling is norm-based: flipping the gradient sign must flip
  // the update sign exactly.
  auto p1 = make_param(4, 16, 0.25f);
  auto p2 = make_param(4, 16, -0.25f);
  core::ApolloConfig cfg;
  cfg.rank = 2;
  cfg.seed = 5;
  auto o1 = core::Apollo::standard(cfg);
  auto o2 = core::Apollo::standard(cfg);
  o1->set_lr(0.01f);
  o2->set_lr(0.01f);
  o1->step({p1.get()});
  o2->step({p2.get()});
  for (int64_t i = 0; i < p1->value.size(); ++i)
    EXPECT_NEAR(p1->value[i] - 1.f, -(p2->value[i] - 1.f), 1e-6f);
}

}  // namespace
}  // namespace apollo
