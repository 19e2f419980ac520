// Adam-mini (Zhang et al., 2024b): keep the full first moment but collapse
// the second moment to one scalar per parameter block. We use one block per
// output channel (row) for matrix weights — the paper's observation that a
// block-wise V suffices for learning-rate adaptation, and the "orthogonal
// idea stream" APOLLO builds on (APOLLO additionally compresses M and V into
// a low-rank auxiliary space). Memory: mn (M) + m (V) per m×n weight — i.e.
// it only halves optimizer state, which is exactly the limitation the paper
// calls out ("full-rank first momentum in Adam-mini").
#pragma once

#include <cmath>
#include <vector>

#include "nn/parameter.h"
#include "optim/optimizer.h"
#include "optim/state_codec.h"
#include "tensor/check.h"
#include "tensor/matrix.h"

namespace apollo::optim {

class AdamMini : public Optimizer {
 public:
  explicit AdamMini(const AdamHyper& hp = {}) : hp_(hp) {}

  void begin_step(const nn::ParamList& params) override {
    Optimizer::begin_step(params);
    bc_ = bias_correction(hp_, t_);
    if (states_.size() < params.size()) states_.resize(params.size());
  }

  void step_param(nn::Parameter& p, int slot) override {
    APOLLO_CHECK_SAME_SHAPE(p.value, p.grad);
    const float b1 = hp_.beta1, b2 = hp_.beta2;
    State& s = states_[static_cast<size_t>(slot)];
    const Matrix& g = p.grad;
    const int64_t rows = g.rows(), cols = g.cols();
    if (s.m.size() == 0) {
      // Lazy first-step state init, sized to the parameter once.
      s.m.reshape_discard(rows, cols);
      s.v.reshape_discard(rows, 1);
    }
    for (int64_t r = 0; r < rows; ++r) {
      // Block mean of squared gradients for this row.
      const float* gr = g.row(r);
      double sq = 0;
      for (int64_t c = 0; c < cols; ++c)
        sq += static_cast<double>(gr[c]) * gr[c];
      float& v = s.v[r];
      v = b2 * v + (1.f - b2) * static_cast<float>(sq / cols);
      const float denom = std::sqrt(v / bc_.c2) + hp_.eps;

      float* mr = s.m.row(r);
      float* wr = p.value.row(r);
      for (int64_t c = 0; c < cols; ++c) {
        mr[c] = b1 * mr[c] + (1.f - b1) * gr[c];
        wr[c] -= lr_ * ((mr[c] / bc_.c1) / denom +
                        hp_.weight_decay * wr[c]);
      }
    }
  }

  std::string name() const override { return "Adam-mini"; }
  int64_t state_bytes() const override {
    int64_t b = 0;
    for (const State& s : states_)
      b += (s.m.size() + s.v.size()) * static_cast<int64_t>(sizeof(float));
    return b;
  }

 protected:
  const char* step_trace_name() const override { return "AdamMini::step"; }
  // Each touched slot's M at its parameter's shape and its rows×1 V.
  void state_fields(StateCodec& c) override {
    c.slots(states_, [&](State& s, const nn::Parameter& p) {
      if (!c.present(s.m.size() > 0)) return;
      c.matrix(s.m, p.value.rows(), p.value.cols());
      c.matrix(s.v, p.value.rows(), 1);
    });
  }

 private:
  struct State {
    Matrix m;
    Matrix v;  // rows×1: one scalar per row-block
  };
  AdamHyper hp_;
  BiasCorrection bc_;
  std::vector<State> states_;  // indexed by slot
};

}  // namespace apollo::optim
