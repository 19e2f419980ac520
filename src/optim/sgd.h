// SGD with optional heavy-ball momentum. The paper's memory yardstick:
// APOLLO-Mini claims "SGD-level memory" — plain SGD holds zero optimizer
// state, momentum-SGD holds one buffer per weight. SGD is also the
// known-to-fail-on-transformers baseline (Zhang et al., 2024a) that the
// integration tests confirm under-performs the adaptive methods.
#pragma once

#include <vector>

#include "nn/parameter.h"
#include "optim/optimizer.h"
#include "optim/state_codec.h"
#include "tensor/check.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace apollo::optim {

class Sgd : public Optimizer {
 public:
  explicit Sgd(float momentum = 0.f, float weight_decay = 0.f)
      : momentum_(momentum), weight_decay_(weight_decay) {}

  void begin_step(const nn::ParamList& params) override {
    Optimizer::begin_step(params);
    if (momentum_ != 0.f && momentum_buf_.size() < params.size())
      momentum_buf_.resize(params.size());
  }

  void step_param(nn::Parameter& p, int slot) override {
    APOLLO_CHECK_SAME_SHAPE(p.value, p.grad);
    if (momentum_ == 0.f) {
      for (int64_t i = 0; i < p.value.size(); ++i)
        p.value[i] -= lr_ * (p.grad[i] + weight_decay_ * p.value[i]);
      return;
    }
    Matrix& buf = momentum_buf_[static_cast<size_t>(slot)];
    if (buf.size() == 0) buf.reshape_discard(p.grad.rows(), p.grad.cols());
    for (int64_t i = 0; i < p.value.size(); ++i) {
      buf[i] = momentum_ * buf[i] + p.grad[i];
      p.value[i] -= lr_ * (buf[i] + weight_decay_ * p.value[i]);
    }
  }

  std::string name() const override {
    return momentum_ == 0.f ? "SGD" : "SGD-momentum";
  }
  int64_t state_bytes() const override {
    int64_t b = 0;
    for (const Matrix& m : momentum_buf_)
      b += m.size() * static_cast<int64_t>(sizeof(float));
    return b;
  }

 protected:
  const char* step_trace_name() const override { return "Sgd::step"; }
  // With momentum, each touched slot's buffer at its parameter's shape.
  void state_fields(StateCodec& c) override {
    if (momentum_ == 0.f) return;
    c.slots(momentum_buf_, [&](Matrix& buf, const nn::Parameter& p) {
      if (c.present(buf.size() > 0))
        c.matrix(buf, p.value.rows(), p.value.cols());
    });
  }

 private:
  float momentum_;
  float weight_decay_;
  std::vector<Matrix> momentum_buf_;  // indexed by slot (momentum only)
};

}  // namespace apollo::optim
