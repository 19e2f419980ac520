// Adafactor (Shazeer & Stern, 2018) — the classic memory-efficient
// optimizer: the second moment of an m×n weight is stored *factored* as a
// row vector (m) and a column vector (n), reconstructed as a rank-1 outer
// product. Included as an extension baseline: it is the historical
// predecessor of the paper's "structured second moment" idea (Adam-mini,
// APOLLO's channel-wise V), with memory m + n per weight — between
// APOLLO-Mini's 2n and GaLore's 2nr.
//
// This implementation follows the original recipe: β₂ schedule
// 1 − t^(−0.8), factored V̂ = (R·C)/mean(R), RMS update clipping at
// threshold d = 1, optional first moment (off by default, as in the paper's
// memory-efficient configuration).
#pragma once

#include <cmath>
#include <vector>

#include "nn/parameter.h"
#include "optim/optimizer.h"
#include "tensor/matrix.h"

namespace apollo::optim {

struct AdafactorConfig {
  float eps1 = 1e-30f;     // added to squared gradients
  float clip_threshold = 1.f;
  float beta2_exponent = 0.8f;  // β₂(t) = 1 − t^(−exponent)
  float beta1 = 0.f;            // 0 ⇒ no first moment (min memory)
  float weight_decay = 0.f;
};

class Adafactor : public Optimizer {
 public:
  explicit Adafactor(const AdafactorConfig& cfg = {}) : cfg_(cfg) {}

  void begin_step(const nn::ParamList& params) override;
  void step_param(nn::Parameter& p, int slot) override;
  std::string name() const override { return "Adafactor"; }
  int64_t state_bytes() const override;

 protected:
  const char* step_trace_name() const override { return "Adafactor::step"; }

 private:
  struct State {
    std::vector<float> vrow;  // m
    std::vector<float> vcol;  // n
    Matrix vfull;             // only for 1-D params
    Matrix m;                 // optional first moment
    int64_t local_t = 0;
  };

  void update_matrix(nn::Parameter* p, State& s, float beta2t);
  void update_vector(nn::Parameter* p, State& s, float beta2t);

  AdafactorConfig cfg_;
  std::vector<State> states_;  // indexed by slot
};

}  // namespace apollo::optim
