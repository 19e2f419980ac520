// Structured learning-rate AdamW (Section 3 of the paper).
//
// AdamW reformulated as "SGD with an adaptive per-element learning rate"
// (Eq. 2), then coarsened: the element-wise scaling S = G̃/G is replaced by
//   - channel-wise factors  sⱼ = ‖G̃[:,j]‖/‖G[:,j]‖ (Eq. 3), or
//   - a single tensor-wise factor s = ‖G̃‖/‖G‖,
// computed from the *full-rank* moments. This optimizer is the paper's
// empirical-validation vehicle (Fig. 3) and the full-rank golden reference
// against which APOLLO's low-rank approximation of the same factors is
// measured (Fig. 4 / Fig. 8). It saves no memory — that is APOLLO's job.
//
// Element granularity is AdamW itself (optim/adamw.h), which Fig. 3's
// element-wise row runs. 1-D parameters here take the element-wise update.
#pragma once

#include <string>
#include <vector>

#include "linalg/projection.h"
#include "nn/parameter.h"
#include "optim/adam_moments.h"
#include "optim/norm_limiter.h"
#include "optim/optimizer.h"
#include "tensor/matrix.h"

namespace apollo::core {

struct StructuredAdamWConfig {
  ScalingGranularity granularity = ScalingGranularity::kChannel;
  bool use_norm_limiter = true;
  optim::AdamHyper hyper;
};

class StructuredAdamW : public optim::Optimizer {
 public:
  explicit StructuredAdamW(const StructuredAdamWConfig& cfg) : cfg_(cfg) {}

  void begin_step(const nn::ParamList& params) override;
  void step_param(nn::Parameter& p, int slot) override;
  std::string name() const override;
  int64_t state_bytes() const override;

  // Full-rank scaling factors from the latest step for the parameter in
  // `slot` (Fig. 4 golden); nullptr before its first coarsened step.
  const std::vector<float>* last_scaling(int slot) const;

 protected:
  const char* step_trace_name() const override {
    return "StructuredAdamW::step";
  }

 private:
  struct State {
    optim::AdamMoments moments;
    int64_t local_t = 0;
    optim::NormGrowthLimiter limiter;
    std::vector<float> last_scaling;
  };

  StructuredAdamWConfig cfg_;
  std::vector<State> states_;  // indexed by slot
};

}  // namespace apollo::core
