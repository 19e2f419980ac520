#include "optim/lowrank.h"

#include <cmath>

#include "linalg/svd.h"
#include "nn/parameter.h"
#include "optim/state_codec.h"
#include "tensor/check.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace apollo::optim {

LowRankAdapter::LowRankAdapter(const AdapterConfig& cfg)
    : cfg_(cfg), dense_(cfg.hyper), rng_(cfg.seed) {
  APOLLO_CHECK(cfg.rank >= 1);
}

std::string LowRankAdapter::name() const {
  switch (cfg_.kind) {
    case AdapterKind::kFactorized: return "Low-Rank";
    case AdapterKind::kLora: return "LoRA";
    case AdapterKind::kRelora: return "ReLoRA";
    case AdapterKind::kDora: return "DoRA";
  }
  return "?";
}

void LowRankAdapter::init_state(nn::Parameter* p, State& s) {
  const int64_t out = p->value.rows(), in = p->value.cols();
  const int64_t r = cfg_.rank;
  APOLLO_CHECK_GT(std::min(out, in), r);
  s.a.reshape_discard(r, in);
  s.b.reshape_discard(out, r);
  if (cfg_.kind == AdapterKind::kFactorized) {
    // Rank-r truncated SVD of the initial weight so training starts from a
    // sensible function; the rank constraint (not the init) is what makes
    // this baseline weak at pre-training.
    SvdResult d = svd(p->value);
    for (int64_t i = 0; i < out; ++i)
      for (int64_t j = 0; j < r; ++j)
        s.b.at(i, j) = d.u.at(i, j) *
                       std::sqrt(d.sigma[static_cast<size_t>(j)]);
    for (int64_t i = 0; i < r; ++i)
      for (int64_t j = 0; j < in; ++j)
        s.a.at(i, j) = std::sqrt(d.sigma[static_cast<size_t>(i)]) *
                       d.v.at(j, i);
  } else {
    s.w0 = p->value;
    // Kaiming-style A, zero B — the adapter starts as the identity map.
    s.a.fill_gaussian(rng_, 0.f,
                      1.f / std::sqrt(static_cast<float>(in)));
    s.b.zero();
    if (cfg_.kind == AdapterKind::kDora) {
      s.mag.reshape_discard(out, 1);
      auto norms = row_norms(p->value);
      for (int64_t i = 0; i < out; ++i)
        s.mag.at(i, 0) = norms[static_cast<size_t>(i)];
    }
  }
}

void LowRankAdapter::recompose(nn::Parameter* p, State& s) {
  APOLLO_CHECK_EQ(s.b.cols(), s.a.rows());
  Matrix w = matmul(s.b, s.a);
  if (cfg_.kind != AdapterKind::kFactorized) add_inplace(w, s.w0);
  if (cfg_.kind == AdapterKind::kDora) {
    // W = mag_i · row-normalized(W0 + B·A)
    auto norms = row_norms(w);
    for (int64_t i = 0; i < w.rows(); ++i) {
      const float n = norms[static_cast<size_t>(i)];
      const float scale = n > 1e-12f ? s.mag.at(i, 0) / n : 0.f;
      float* row = w.row(i);
      for (int64_t c = 0; c < w.cols(); ++c) row[c] *= scale;
    }
  }
  p->value = std::move(w);
}

void LowRankAdapter::begin_step(const nn::ParamList& params) {
  Optimizer::begin_step(params);
  if (states_.size() < params.size()) states_.resize(params.size());
  // Adapter initialization draws from rng_, so it runs here in slot order
  // (step_param may be called in backward-completion order under the fused
  // path). Values are untouched at this point, so the SVD/Kaiming inits see
  // exactly what the old in-loop init saw.
  for (size_t i = 0; i < params.size(); ++i) {
    nn::Parameter* p = params[i];
    if (!adapted(*p)) continue;
    State& s = states_[i];
    if (!s.initialized) {
      init_state(p, s);
      s.initialized = true;
    }
    ++s.local_t;
  }
}

void LowRankAdapter::step_param(nn::Parameter& p, int slot) {
  APOLLO_CHECK_SAME_SHAPE(p.value, p.grad);
  if (!adapted(p)) {
    dense_.update(slot, p.value, p.grad, lr_, t_);
    return;
  }
  State& s = states_[static_cast<size_t>(slot)];

  Matrix g = p.grad;  // dense dL/dW
  if (cfg_.kind == AdapterKind::kDora) {
    // First-order DoRA: train the row magnitudes on the direction-aligned
    // component, pass the rescaled gradient to the direction factors.
    Matrix dir = matmul(s.b, s.a);
    add_inplace(dir, s.w0);
    auto norms = row_norms(dir);
    Matrix dmag(s.mag.rows(), 1);
    for (int64_t i = 0; i < g.rows(); ++i) {
      const float n = std::max(norms[static_cast<size_t>(i)], 1e-12f);
      const float* gr = g.row(i);
      const float* dr = dir.row(i);
      double dot = 0;
      for (int64_t c = 0; c < g.cols(); ++c)
        dot += static_cast<double>(gr[c]) * dr[c] / n;
      dmag.at(i, 0) = static_cast<float>(dot);
      // Chain rule through the magnitude rescaling (normalization
      // coupling dropped — first-order approximation).
      const float rescale = s.mag.at(i, 0) / n;
      float* grow = g.row(i);
      for (int64_t c = 0; c < g.cols(); ++c) grow[c] *= rescale;
    }
    adamw_update(s.mag_m, s.mag, dmag, cfg_.hyper, lr_, s.local_t);
  }

  // Exact factor gradients for W(+W0) = B·A: dB = G·Aᵀ, dA = Bᵀ·G.
  Matrix db = matmul_bt(g, s.a);
  Matrix da = matmul_at(s.b, g);
  adamw_update(s.b_m, s.b, db, cfg_.hyper, lr_, s.local_t);
  adamw_update(s.a_m, s.a, da, cfg_.hyper, lr_, s.local_t);
  recompose(&p, s);
}

void LowRankAdapter::end_step(const nn::ParamList& params) {
  if (cfg_.kind == AdapterKind::kRelora) {
    // ReLoRA restarts draw from rng_, so they run here in slot order after
    // every parameter has been recomposed (the merge reads p->value, which
    // step_param already finalized for this step).
    for (size_t i = 0; i < params.size(); ++i) {
      nn::Parameter* p = params[i];
      if (!adapted(*p)) continue;
      State& s = states_[i];
      if (!s.initialized || s.local_t == 0 ||
          s.local_t % cfg_.merge_freq != 0)
        continue;
      // Merge the adapter into the base and restart from a fresh subspace —
      // this is what lets ReLoRA accumulate rank over time.
      s.w0 = p->value;
      s.a.fill_gaussian(rng_, 0.f,
                        1.f / std::sqrt(static_cast<float>(s.a.cols())));
      s.b.zero();
      s.local_t = 0;  // restart bias correction with the fresh subspace
      s.a_m = AdamMoments();
      s.b_m = AdamMoments();
    }
  }
  Optimizer::end_step(params);
}

int64_t LowRankAdapter::state_bytes() const {
  // Factors + their Adam moments + (DoRA) magnitudes.
  int64_t b = dense_.state_bytes();
  for (const State& s : states_)
    b += (s.a.size() + s.b.size() + s.mag.size()) *
             static_cast<int64_t>(sizeof(float)) +
         s.mag_m.bytes() + s.b_m.bytes() + s.a_m.bytes();
  return b;
}

void LowRankAdapter::state_fields(StateCodec& c) {
  using Keep = StateCodec::Keep;
  c.rng(rng_);
  c.slots(states_, [&](State& s, const nn::Parameter& p) {
    if (!c.present(s.initialized)) return;
    c.scalar(s.local_t);
    c.check(adapted(p) && s.local_t >= 0);
    if (!c.ok()) return;
    s.initialized = true;
    const int64_t out = p.value.rows(), in = p.value.cols(), r = cfg_.rank;
    const bool lora = cfg_.kind != AdapterKind::kFactorized;
    const bool dora = cfg_.kind == AdapterKind::kDora;
    c.matrix(s.w0, lora ? out : 0, lora ? in : 0);
    c.matrix(s.a, r, in, Keep::kEveryRank);
    c.matrix(s.b, out, r, Keep::kEveryRank);
    c.matrix(s.mag, dora ? out : 0, dora ? 1 : 0, Keep::kEveryRank);
    // ReLoRA's restart drops A's and B's moments until the next step.
    c.moments(s.mag_m, out, 1, MomentPrecision::kFp32, /*may_be_empty=*/true);
    c.moments(s.b_m, out, r, MomentPrecision::kFp32, /*may_be_empty=*/true);
    c.moments(s.a_m, r, in, MomentPrecision::kFp32, /*may_be_empty=*/true);
  });
  dense_.state_fields(c);
}

}  // namespace apollo::optim
