#include "optim/dense_adam.h"

#include <utility>

#include "tensor/check.h"

namespace apollo::optim {

void DenseAdamCore::update(int64_t slot, Matrix& value,
                           const Matrix& grad, float lr, int64_t t) {
  APOLLO_CHECK_SAME_SHAPE(value, grad);
  APOLLO_CHECK_GE(t, 1);
  APOLLO_CHECK_GE(slot, 0);
  if (slot >= static_cast<int64_t>(states_.size()))
    // Grows to the highest slot during the first pass over the parameters,
    // then stays put — steady-state steps never hit this branch.
    states_.resize(static_cast<size_t>(slot) + 1);  // lint:allow(hot-path-alloc)
  AdamMoments& s = states_[static_cast<size_t>(slot)];
  if (s.empty()) s.allocate(grad.rows(), grad.cols(), precision_);
  const float wd = hp_.weight_decay;
  s.advance(grad, hp_, bias_correction(hp_, t),
            [&](int64_t lo, int64_t len, const float* dir) {
              float* w = value.data() + lo;
              for (int64_t k = 0; k < len; ++k)
                w[k] -= lr * (dir[k] + wd * w[k]);
            });
}

bool DenseAdamCore::save(std::FILE* f, int64_t n_slots) const {
  static const AdamMoments kEmpty;
  for (int64_t i = 0; i < n_slots; ++i) {
    const bool have = i < static_cast<int64_t>(states_.size());
    if (!(have ? states_[static_cast<size_t>(i)] : kEmpty).save(f))
      return false;
  }
  return true;
}

// Parses untrusted bytes: a record that does not fit its parameter fails the
// load (returns false) instead of aborting.
// lint:allow(check-shape-preconditions)
bool DenseAdamCore::load_merge(std::FILE* f, const nn::ParamList& params,
                               int rank, int world) {
  if (states_.size() < params.size()) states_.resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const Matrix& value = params[i]->value;
    AdamMoments s;
    if (!s.load(f, value.rows(), value.cols(), /*may_be_empty=*/true))
      return false;
    if (s.empty()) continue;  // slot had no state when saved
    if (world > 1 && static_cast<int>(i % static_cast<size_t>(world)) != rank)
      continue;  // not ours to keep
    states_[i] = std::move(s);
  }
  return true;
}

}  // namespace apollo::optim
