// Full-rank AdamW (Loshchilov & Hutter) — the paper's primary baseline —
// with its moments at any rung of the precision ladder: fp32 ("AdamW"),
// bf16 ("AdamW (bf16 states)", the storage the paper's memory estimates
// assume) or block-wise int8 ("8-bit Adam", Table 3's baseline).
#pragma once

#include "nn/parameter.h"
#include "optim/adam_moments.h"
#include "optim/dense_adam.h"
#include "optim/optimizer.h"
#include "tensor/check.h"

namespace apollo::optim {

class AdamW : public Optimizer {
 public:
  explicit AdamW(const AdamHyper& hp = {},
                 MomentPrecision precision = MomentPrecision::kFp32)
      : core_(hp, precision) {}

  void step_param(nn::Parameter& p, int slot) override {
    APOLLO_CHECK_SAME_SHAPE(p.value, p.grad);
    core_.update(slot, p.value, p.grad, lr_, t_);
  }

  std::string name() const override;
  int64_t state_bytes() const override { return core_.state_bytes(); }

 protected:
  const char* step_trace_name() const override { return "AdamW::step"; }
  void state_fields(StateCodec& c) override { core_.state_fields(c); }

 private:
  DenseAdamCore core_;
};

}  // namespace apollo::optim
