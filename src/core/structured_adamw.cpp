#include "core/structured_adamw.h"

#include <utility>

#include "linalg/projection.h"
#include "nn/parameter.h"
#include "tensor/check.h"
#include "tensor/matrix.h"

namespace apollo::core {

std::string StructuredAdamW::name() const {
  return cfg_.granularity == ScalingGranularity::kTensor
             ? "AdamW (tensor-wise)"
             : "AdamW (channel-wise)";
}

void StructuredAdamW::begin_step(const nn::ParamList& params) {
  Optimizer::begin_step(params);
  if (states_.size() < params.size()) states_.resize(params.size());
}

void StructuredAdamW::step_param(nn::Parameter& p, int slot) {
  APOLLO_CHECK_SAME_SHAPE(p.value, p.grad);
  State& s = states_[static_cast<size_t>(slot)];
  const Matrix& g = p.grad;
  if (s.moments.empty())
    s.moments.allocate(g.rows(), g.cols(), optim::MomentPrecision::kFp32);
  ++s.local_t;

  // Full-rank moments and the element-wise normalized gradient G̃, which is
  // the update itself for a 1-D parameter.
  Matrix update(g.rows(), g.cols());
  s.moments.advance(g, cfg_.hyper,
                    optim::bias_correction(cfg_.hyper, s.local_t),
                    [&](int64_t lo, int64_t len, const float* dir) {
                      for (int64_t k = 0; k < len; ++k) update[lo + k] = dir[k];
                    });

  if (p.matrix_shaped) {
    // Coarsened: the raw gradient scaled by G̃'s channel (or tensor) norms,
    // channels along the larger dimension (paper convention m ≤ n).
    const Matrix gtilde = std::exchange(update, g);
    apply_structured_scaling(update, gtilde, g,
                             natural_side(g.rows(), g.cols()),
                             cfg_.granularity, s.last_scaling);
    if (cfg_.use_norm_limiter) s.limiter.apply(update);
  }

  const float wd = cfg_.hyper.weight_decay;
  for (int64_t i = 0; i < p.value.size(); ++i)
    p.value[i] -= lr_ * (update[i] + wd * p.value[i]);
}

int64_t StructuredAdamW::state_bytes() const {
  int64_t b = 0;
  for (const State& s : states_) b += s.moments.bytes();
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
