// Weight-side low-rank baselines: Low-Rank factorization (W = U·V), LoRA,
// ReLoRA and a DoRA-lite variant (Table 2 / Table 4 baselines).
//
// These methods restrict the *trainable parameterization* rather than the
// optimizer state. To keep one training loop for every method, they are
// implemented as gradient-transforming optimizers: the model still exposes a
// dense weight W (used by forward/backward), the adapter maintains the
// factors, derives the factor gradients from the dense gradient by the chain
// rule (dB = G·Aᵀ, dA = Bᵀ·G — exact, since W is an affine function of the
// factors), updates the factors with AdamW, and writes the recomposed dense
// weight back. This is mathematically identical to training the factors
// directly and reproduces the characteristic behaviour the paper reports
// (LoRA-family struggles at pre-training, is fine at fine-tuning).
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "nn/parameter.h"
#include "optim/dense_adam.h"
#include "optim/optimizer.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace apollo::optim {

enum class AdapterKind {
  kFactorized,  // W = U·V, both trained (the paper's "Low-Rank" baseline)
  kLora,        // W = W0 + B·A, W0 frozen
  kRelora,      // LoRA with periodic merge-and-restart
  kDora,        // LoRA + trained per-row magnitude (first-order DoRA)
};

struct AdapterConfig {
  AdapterKind kind = AdapterKind::kLora;
  int64_t rank = 4;
  int merge_freq = 200;  // ReLoRA merge period
  AdamHyper hyper;
  uint64_t seed = 99;
};

class LowRankAdapter : public Optimizer {
 public:
  explicit LowRankAdapter(const AdapterConfig& cfg);

  // All rng_ draws (adapter inits, ReLoRA restarts) happen in begin_step /
  // end_step, in slot order, so step_param() is order-independent — the
  // fused backward path may deliver parameters in completion order.
  void begin_step(const nn::ParamList& params) override;
  void step_param(nn::Parameter& p, int slot) override;
  void end_step(const nn::ParamList& params) override;
  std::string name() const override;
  int64_t state_bytes() const override;

 protected:
  const char* step_trace_name() const override {
    return "LowRankAdapter::step";
  }

 private:
  struct State {
    Matrix w0;      // frozen base (LoRA family); empty for kFactorized
    Matrix a;       // r×in
    Matrix b;       // out×r
    Matrix mag;     // out×1 row magnitudes (kDora only)
    int64_t local_t = 0;
    bool initialized = false;
  };

  // Pure routing predicate — nothing shape-dependent to verify.
  // lint:allow(check-shape-preconditions)
  bool adapted(const nn::Parameter& p) const {
    return p.matrix_shaped &&
           std::min(p.value.rows(), p.value.cols()) > cfg_.rank;
  }
  void init_state(nn::Parameter* p, State& s);
  void recompose(nn::Parameter* p, State& s);

  AdapterConfig cfg_;
  // Moments for the factors live in factor_adam_ under fixed sub-slots per
  // parameter slot: mag = 3·slot, B = 3·slot+1, A = 3·slot+2.
  DenseAdamCore factor_adam_;
  DenseAdamCore dense_;        // 1-D fallback (keyed by the param slot)
  std::vector<State> states_;  // indexed by slot
  Rng rng_;
};

}  // namespace apollo::optim
