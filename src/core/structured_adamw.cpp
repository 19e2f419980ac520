#include "core/structured_adamw.h"

#include <utility>

#include "linalg/projection.h"
#include "nn/parameter.h"
#include "tensor/check.h"
#include "tensor/matrix.h"

namespace apollo::core {

std::string StructuredAdamW::name() const {
  switch (cfg_.granularity) {
    case LrGranularity::kElement: return "AdamW (element-wise)";
    case LrGranularity::kChannel: return "AdamW (channel-wise)";
    case LrGranularity::kTensor: return "AdamW (tensor-wise)";
  }
  return "?";
}

void StructuredAdamW::begin_step(const nn::ParamList& params) {
  Optimizer::begin_step(params);
  if (states_.size() < params.size()) states_.resize(params.size());
}

void StructuredAdamW::step_param(nn::Parameter& p, int slot) {
  APOLLO_CHECK_SAME_SHAPE(p.value, p.grad);
  State& s = states_[static_cast<size_t>(slot)];
  const Matrix& g = p.grad;
  if (s.m.size() == 0) {
    s.m.reshape_discard(g.rows(), g.cols());
    s.v.reshape_discard(g.rows(), g.cols());
  }
  ++s.local_t;
  const optim::BiasCorrection bc =
      optim::bias_correction(cfg_.hyper, s.local_t);

  // Full-rank moments and the element-wise normalized gradient G̃, which is
  // the update itself at element granularity.
  Matrix update(g.rows(), g.cols());
  for (int64_t i = 0; i < g.size(); ++i)
    update[i] = optim::adam_direction(s.m[i], s.v[i], g[i], cfg_.hyper, bc);

  if (p.matrix_shaped && cfg_.granularity != LrGranularity::kElement) {
    // Coarsened: the raw gradient scaled by G̃'s channel (or tensor) norms,
    // channels along the larger dimension (paper convention m ≤ n).
    const Matrix gtilde = std::exchange(update, g);
    apply_structured_scaling(update, gtilde, g,
                             natural_side(g.rows(), g.cols()),
                             cfg_.granularity == LrGranularity::kTensor,
                             s.last_scaling);
    if (cfg_.use_norm_limiter) s.limiter.apply(update);
  }

  const float wd = cfg_.hyper.weight_decay;
  for (int64_t i = 0; i < p.value.size(); ++i)
    p.value[i] -= lr_ * (update[i] + wd * p.value[i]);
}

int64_t StructuredAdamW::state_bytes() const {
  int64_t b = 0;
  for (const State& s : states_)
    b += (s.m.size() + s.v.size()) * static_cast<int64_t>(sizeof(float));
  return b;
}

// Read-only instrumentation lookup; unknown slots return nullptr.
// lint:allow(check-shape-preconditions)
const std::vector<float>* StructuredAdamW::last_scaling(int slot) const {
  if (slot < 0 || static_cast<size_t>(slot) >= states_.size()) return nullptr;
  const std::vector<float>& s = states_[static_cast<size_t>(slot)].last_scaling;
  return s.empty() ? nullptr : &s;
}

}  // namespace apollo::core
