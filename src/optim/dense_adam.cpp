#include "optim/dense_adam.h"

#include <cmath>

#include "core/threadpool.h"
#include "tensor/check.h"
#include "tensor/serialize.h"

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
  State& s = states_[static_cast<size_t>(slot)];
  if (s.m.size() == 0) {
    s.m.reshape_discard(grad.rows(), grad.cols());
    s.v.reshape_discard(grad.rows(), grad.cols());
  }
  const float b1 = hp_.beta1, b2 = hp_.beta2;
  const BiasCorrection bc = bias_correction(hp_, t);
  const float bc1 = bc.c1;
  const float bc2 = bc.c2;
  // Element-disjoint update: safe to fan out over the deterministic pool.
  core::parallel_for(
      grad.size(),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          const float g = grad[i];
          s.m[i] = b1 * s.m[i] + (1.f - b1) * g;
          s.v[i] = b2 * s.v[i] + (1.f - b2) * g * g;
          const float mhat = s.m[i] / bc1;
          const float vhat = s.v[i] / bc2;
          value[i] -= lr * (mhat / (std::sqrt(vhat) + hp_.eps) +
                            hp_.weight_decay * value[i]);
        }
      },
      /*grain=*/1 << 13);
}

bool DenseAdamCore::save(std::FILE* f, int64_t n_slots) const {
  static const Matrix kEmpty;
  for (int64_t i = 0; i < n_slots; ++i) {
    const bool have = i < static_cast<int64_t>(states_.size());
    const Matrix& m = have ? states_[static_cast<size_t>(i)].m : kEmpty;
    const Matrix& v = have ? states_[static_cast<size_t>(i)].v : kEmpty;
    if (!write_matrix(f, m) || !write_matrix(f, v)) return false;
  }
  return true;
}

bool DenseAdamCore::load_merge(std::FILE* f, int64_t n_slots, int rank,
                               int world) {
  if (static_cast<int64_t>(states_.size()) < n_slots)
    states_.resize(static_cast<size_t>(n_slots));
  for (int64_t i = 0; i < n_slots; ++i) {
    Matrix m, v;
    if (!read_matrix(f, m) || !read_matrix(f, v)) return false;
    if (m.size() == 0) continue;  // slot had no state when saved
    if (world > 1 && i % world != rank) continue;  // not ours to keep
    State& s = states_[static_cast<size_t>(i)];
    s.m = std::move(m);
    s.v = std::move(v);
  }
  return true;
}

}  // namespace apollo::optim
