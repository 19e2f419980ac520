// AdamW with BF16-stored moments: compute in fp32, persist M and V in
// bfloat16 — the storage convention behind the paper's memory estimates
// ("all experiments in BF16"). Together with Adam8bit this completes the
// state-precision ladder fp32 → bf16 → int8 exercised by
// bench_ablation_precision.
#pragma once

#include <memory>
#include <vector>

#include "nn/parameter.h"
#include "optim/optimizer.h"
#include "quant/bf16.h"
#include "tensor/check.h"
#include "tensor/matrix.h"

namespace apollo::optim {

class AdamWBf16 : public Optimizer {
 public:
  explicit AdamWBf16(const AdamHyper& hp = {}) : hp_(hp) {}

  void begin_step(const nn::ParamList& params) override {
    Optimizer::begin_step(params);
    bc_ = bias_correction(hp_, t_);
    if (states_.size() < params.size()) states_.resize(params.size());
  }

  void step_param(nn::Parameter& p, int slot) override {
    APOLLO_CHECK_SAME_SHAPE(p.value, p.grad);
    State& s = states_[static_cast<size_t>(slot)];
    const Matrix& g = p.grad;
    if (!s.m) {
      // Lazy first-step state init, sized to the parameter once.
      s.m = std::make_unique<Bf16Buffer>(  // lint:allow(hot-path-alloc)
          g.rows(), g.cols());
      s.v = std::make_unique<Bf16Buffer>(  // lint:allow(hot-path-alloc)
          g.rows(), g.cols());
    }
    Matrix m = s.m->load();
    Matrix v = s.v->load();
    for (int64_t i = 0; i < g.size(); ++i)
      p.value[i] -= lr_ * (adam_direction(m[i], v[i], g[i], hp_, bc_) +
                           hp_.weight_decay * p.value[i]);
    s.m->store(m);
    s.v->store(v);
  }

  std::string name() const override { return "AdamW (bf16 states)"; }
  int64_t state_bytes() const override {
    int64_t b = 0;
    for (const State& s : states_)
      if (s.m) b += s.m->bytes() + s.v->bytes();
    return b;
  }

 protected:
  const char* step_trace_name() const override { return "AdamWBf16::step"; }

 private:
  struct State {
    std::unique_ptr<Bf16Buffer> m, v;
  };
  AdamHyper hp_;
  BiasCorrection bc_;
  std::vector<State> states_;  // indexed by slot
};

}  // namespace apollo::optim
