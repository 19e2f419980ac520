// Property tests of the paper's theory (Appendix A): moment-norm
// preservation under random projection (Theorems A.2/A.3) and the scaled
// gradient-scaling-factor ratio bound √(n/r)·s^R/s ≈ 1 (Theorem A.4), which
// Fig. 4 / Fig. 8 validate empirically. These run the *actual* optimizer
// code paths (StructuredAdamW as the full-rank golden, Apollo as the
// compressed estimate) on a synthetic gradient stream.
#include <gtest/gtest.h>

#include <cmath>

#include "core/apollo.h"
#include "core/structured_adamw.h"
#include "linalg/projection.h"
#include "tensor/ops.h"

namespace apollo {
namespace {

// EMA moments of a fixed gradient stream, projected vs. original.
TEST(Theory, FirstMomentNormPreserved) {
  // M_t^R = P·M_t exactly (linearity, Theorem A.2 step 2), so the norm
  // ratio obeys the JL bound of Theorem A.1.
  const int64_t m = 96, n = 4, r = 24;
  Rng rng(1);
  Matrix mom(m, n);
  Matrix p = gaussian_projection(r, m, 7);
  Matrix mom_r(r, n);
  const float b1 = 0.9f;
  for (int t = 0; t < 30; ++t) {
    Matrix g(m, n);
    g.fill_gaussian(rng);
    Matrix gr = matmul(p, g);
    for (int64_t i = 0; i < mom.size(); ++i)
      mom[i] = b1 * mom[i] + (1 - b1) * g[i];
    for (int64_t i = 0; i < mom_r.size(); ++i)
      mom_r[i] = b1 * mom_r[i] + (1 - b1) * gr[i];
  }
  // Verify M^R == P·M (exact linearity).
  EXPECT_LT(max_abs_diff(mom_r, matmul(p, mom)), 1e-4f);
  // And norm preservation per channel within a loose (1±ε) band.
  auto orig = col_norms(mom);
  auto proj = col_norms(mom_r);
  for (int64_t j = 0; j < n; ++j) {
    const float ratio2 = (proj[j] * proj[j]) / (orig[j] * orig[j]);
    EXPECT_GT(ratio2, 0.3f);
    EXPECT_LT(ratio2, 2.2f);
  }
}

TEST(Theory, SecondMomentL1Preserved) {
  // ‖V_t^R[:,j]‖₁ = (1−β₂)Σβ₂ᵏ‖R[:,j]‖² ∈ (1±ε)‖V_t[:,j]‖₁ (Thm A.3).
  const int64_t m = 96, n = 4, r = 32;
  Rng rng(2);
  Matrix v(m, n), vr(r, n);
  Matrix p = gaussian_projection(r, m, 8);
  const float b2 = 0.99f;
  for (int t = 0; t < 50; ++t) {
    Matrix g(m, n);
    g.fill_gaussian(rng);
    Matrix gr = matmul(p, g);
    for (int64_t i = 0; i < v.size(); ++i)
      v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i];
    for (int64_t i = 0; i < vr.size(); ++i)
      vr[i] = b2 * vr[i] + (1 - b2) * gr[i] * gr[i];
  }
  for (int64_t j = 0; j < n; ++j) {
    double l1 = 0, l1r = 0;
    for (int64_t i = 0; i < m; ++i) l1 += v.at(i, j);
    for (int64_t i = 0; i < r; ++i) l1r += vr.at(i, j);
    EXPECT_GT(l1r / l1, 0.5);
    EXPECT_LT(l1r / l1, 1.8);
  }
}

// --- Theorem A.4: √(n/r)·s^R/s concentrates around 1 ----------------------
// (n here is the projected dimension m in our convention; the paper's
// statement uses n for the compressed axis length of the full-rank space.)
class ScalingRatioTest : public ::testing::TestWithParam<int> {};

TEST_P(ScalingRatioTest, CompressedFactorsMatchTheoreticalRatio) {
  const int64_t r = GetParam();
  const int64_t m = 64, n = 128;  // m ≤ n: project rows, channels = columns

  // Identical parameter + gradient stream for golden and compressed runs.
  auto golden_param = std::make_unique<nn::Parameter>("w", m, n);
  auto apollo_param = std::make_unique<nn::Parameter>("w", m, n);
  Rng rng(3);
  golden_param->value.fill_gaussian(rng, 0.f, 0.02f);
  apollo_param->value = golden_param->value;

  core::StructuredAdamWConfig gcfg;
  gcfg.use_norm_limiter = false;
  core::StructuredAdamW golden(gcfg);
  core::ApolloConfig acfg;
  acfg.rank = r;
  acfg.use_norm_limiter = false;
  acfg.update_freq = 1000000;  // fixed projection (the theorem's setting)
  auto apollo_opt = core::Apollo::standard(acfg);
  golden.set_lr(1e-4f);
  apollo_opt->set_lr(1e-4f);

  Rng gstream(4);
  for (int t = 0; t < 40; ++t) {
    Matrix g(m, n);
    g.fill_gaussian(gstream, 0.f, 0.1f);
    golden_param->grad = g;
    apollo_param->grad = g;
    golden.step({golden_param.get()});
    apollo_opt->step({apollo_param.get()});
  }

  const auto* s_full = golden.last_scaling(0);
  const auto* s_comp = apollo_opt->last_scaling(0);
  ASSERT_NE(s_full, nullptr);
  ASSERT_NE(s_comp, nullptr);
  ASSERT_EQ(s_full->size(), s_comp->size());

  // Median of √(m/r)·s^R/s over channels should sit near 1 (Thm A.4).
  std::vector<double> ratios;
  for (size_t j = 0; j < s_full->size(); ++j)
    if ((*s_full)[j] > 1e-6f)
      ratios.push_back(std::sqrt(static_cast<double>(m) / r) *
                       (*s_comp)[j] / (*s_full)[j]);
  ASSERT_GT(ratios.size(), 100u);
  std::sort(ratios.begin(), ratios.end());
  const double median = ratios[ratios.size() / 2];
  EXPECT_GT(median, 0.7) << "rank " << r;
  EXPECT_LT(median, 1.4) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(Ranks, ScalingRatioTest,
                         ::testing::Values(8, 16, 32));

TEST(Theory, MiniTensorFactorSmallerThanChannelFactors) {
  // The paper justifies APOLLO-Mini's α = √128 by the rank-1 factor being
  // √(n/r)-fold smaller; check the rank-1 tensor factor is much smaller
  // than the full-rank golden's typical channel factor.
  const int64_t m = 64, n = 128;
  auto golden_param = std::make_unique<nn::Parameter>("w", m, n);
  auto mini_param = std::make_unique<nn::Parameter>("w", m, n);
  Rng rng(5);
  golden_param->value.fill_gaussian(rng, 0.f, 0.02f);
  mini_param->value = golden_param->value;

  core::StructuredAdamWConfig gcfg;
  gcfg.granularity = ScalingGranularity::kTensor;
  gcfg.use_norm_limiter = false;
  core::StructuredAdamW golden(gcfg);
  core::ApolloConfig mcfg = core::ApolloConfig::mini();
  mcfg.scale = 1.f;  // observe the raw factor without α
  mcfg.use_norm_limiter = false;
  core::Apollo mini(mcfg);
  golden.set_lr(1e-4f);
  mini.set_lr(1e-4f);

  Rng gstream(6);
  for (int t = 0; t < 30; ++t) {
    Matrix g(m, n);
    g.fill_gaussian(gstream, 0.f, 0.1f);
    golden_param->grad = g;
    mini_param->grad = g;
    golden.step({golden_param.get()});
    mini.step({mini_param.get()});
  }
  const double full = (*golden.last_scaling(0))[0];
  const double compressed = (*mini.last_scaling(0))[0];
  const double expected = std::sqrt(1.0 / m);  // √(r/n) with r=1, dim m
  const double observed = compressed / full;
  EXPECT_GT(observed, expected / 3);
  EXPECT_LT(observed, expected * 3);
}

}  // namespace
}  // namespace apollo
