#include "core/quantized_weights.h"

#include <algorithm>

#include "tensor/check.h"

namespace apollo::core {

QuantizedWeightStore::QuantizedWeightStore(const nn::ParamList& params,
                                           uint64_t seed, int64_t group)
    : group_(group) {
  // Split one independent RNG stream per quantized slot, in slot order, so
  // per-slot requantization consumes randomness independently of the order
  // in which slots are stepped (fused completion order vs. classic order).
  Rng seeder(seed);
  slot_index_.assign(params.size(), -1);
  for (size_t i = 0; i < params.size(); ++i) {
    nn::Parameter* p = params[i];
    if (p->matrix_shaped) {
      slot_index_[i] = static_cast<int>(slots_.size());
      Slot s;
      s.param = p;
      s.store = GroupQuantized::quantize(p->value, group_);
      s.residuals.assign(static_cast<size_t>(s.store.num_groups()), 0.f);
      s.rng = Rng(seeder.split());
      slots_.push_back(std::move(s));
    } else {
      fp32_params_.push_back(p);
    }
  }
  dequantize_into_params();
}

void QuantizedWeightStore::dequantize_into_params() {
  for (Slot& s : slots_) {
    s.param->value = s.store.dequantize();
    std::fill(s.residuals.begin(), s.residuals.end(), 0.f);
  }
}

void QuantizedWeightStore::requantize_param(int slot) {
  APOLLO_CHECK(slot >= 0 && slot < static_cast<int>(slot_index_.size()));
  const int idx = slot_index_[static_cast<size_t>(slot)];
  if (idx < 0) return;  // 1-D gain: stays fp32
  Slot& s = slots_[static_cast<size_t>(idx)];
  s.store.requantize_stochastic(s.param->value, s.residuals.data(), s.rng);
}

void QuantizedWeightStore::requantize_from_params() {
  for (Slot& s : slots_)
    std::fill(s.residuals.begin(), s.residuals.end(), 0.f);
  for (int i = 0; i < static_cast<int>(slot_index_.size()); ++i)
    requantize_param(i);
}

int64_t QuantizedWeightStore::weight_bytes() const {
  int64_t b = 0;
  for (const Slot& s : slots_) {
    b += s.store.bytes();
    b += static_cast<int64_t>(s.residuals.size() * sizeof(float));
  }
  for (const nn::Parameter* p : fp32_params_)
    b += p->value.size() * static_cast<int64_t>(sizeof(float));
  return b;
}

}  // namespace apollo::core
