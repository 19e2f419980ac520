#include "optim/dense_adam.h"

#include "optim/state_codec.h"
#include "tensor/check.h"

namespace apollo::optim {

void adamw_update(AdamMoments& s, Matrix& value, const Matrix& grad,
                  const AdamHyper& hp, float lr, int64_t t,
                  MomentPrecision precision) {
  APOLLO_CHECK_SAME_SHAPE(value, grad);
  APOLLO_CHECK_GE(t, 1);
  if (s.empty()) s.allocate(grad.rows(), grad.cols(), precision);
  const float wd = hp.weight_decay;
  s.advance(grad, hp, bias_correction(hp, t),
            [&](int64_t lo, int64_t len, const float* dir) {
              float* w = value.data() + lo;
              for (int64_t k = 0; k < len; ++k)
                w[k] -= lr * (dir[k] + wd * w[k]);
            });
}

void DenseAdamCore::update(int64_t slot, Matrix& value,
                           const Matrix& grad, float lr, int64_t t) {
  APOLLO_CHECK_GE(slot, 0);
  if (slot >= static_cast<int64_t>(states_.size()))
    // Grows to the highest slot during the first pass over the parameters,
    // then stays put — steady-state steps never hit this branch.
    states_.resize(static_cast<size_t>(slot) + 1);  // lint:allow(hot-path-alloc)
  adamw_update(states_[static_cast<size_t>(slot)], value, grad, hp_, lr, t,
               precision_);
}

void DenseAdamCore::state_fields(StateCodec& c) {
  c.slots(states_, [&](AdamMoments& s, const nn::Parameter& p) {
    c.moments(s, p.value.rows(), p.value.cols(), precision_,
              /*may_be_empty=*/true);
  });
}

}  // namespace apollo::optim
