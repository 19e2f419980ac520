// APOLLO — Approximated Gradient Scaling for Memory-Efficient LLM
// Optimization (Algorithm 1 of the paper). This is the repository's primary
// contribution.
//
// Per 2-D weight W (gradient G, shape m×n with channels along the larger
// dimension):
//   1. R = P·G with P ∈ R^{r×m}, entries N(0, 1/r), regenerated every step
//      from an 8-byte seed that is re-drawn every `update_freq` steps
//      (SVD-free; nothing but the seed is stored).
//   2. AdamW moments are maintained only for R:  Mᴿ, Vᴿ ∈ R^{r×n}.
//   3. The structured gradient-scaling factor is computed in the compressed
//      space — channel-wise  sⱼ = ‖R̃[:,j]‖/‖R[:,j]‖ (APOLLO) or tensor-wise
//      s = ‖R̃‖/‖R‖ (APOLLO-Mini), with R̃ = M̂ᴿ/(√V̂ᴿ+ε).
//   4. The *raw full-rank* gradient is scaled: update = α·G·diag(s) (or
//      α·s·G), passed through the norm-growth limiter, and applied with
//      decoupled weight decay.
//
// Optimizer state per weight: 2·n·r floats + seed + limiter norm — the
// "2nr + 2" entry of Table 1. APOLLO-Mini (r = 1, tensor granularity,
// α = √128) reduces this to 2n + 2: SGD-level memory.
//
// The `proj = kSvd` variant ("APOLLO w. SVD") stores a top-r singular-vector
// projector refreshed every T steps, used by the Fig. 5 projection ablation.
#pragma once

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "linalg/projection.h"
#include "nn/parameter.h"
#include "optim/dense_adam.h"
#include "optim/optimizer.h"
#include "optim/subspace.h"
#include "tensor/rng.h"

namespace apollo::core {

struct ApolloConfig {
  int64_t rank = 4;
  ScalingGranularity granularity = ScalingGranularity::kChannel;
  optim::ProjKind proj = optim::ProjKind::kRandom;
  float scale = 1.f;       // α (√(n/r) folded into the LR by default)
  int update_freq = 200;   // T: projection re-seed / SVD refresh period
  bool use_norm_limiter = true;
  float nl_gamma = 1.01f;
  optim::AdamHyper hyper;
  uint64_t seed = 4242;

  // APOLLO-Mini: rank-1 auxiliary space, tensor-wise scaling, α = √128.
  static ApolloConfig mini() {
    ApolloConfig c;
    c.rank = 1;
    c.granularity = ScalingGranularity::kTensor;
    c.scale = std::sqrt(128.f);
    return c;
  }
};

class Apollo : public optim::Optimizer {
 public:
  explicit Apollo(const ApolloConfig& cfg, std::string display_name = "");

  // All RNG draws (initial and refresh projection seeds) happen in
  // begin_step(), in slot order, so step_param() is order-independent — the
  // fused backward path may deliver parameters in completion order. SVD
  // refreshes (data-dependent on the gradient) stay in step_param().
  void begin_step(const nn::ParamList& params) override;
  void step_param(nn::Parameter& p, int slot) override;
  void end_step(const nn::ParamList& params) override;
  std::string name() const override { return display_name_; }
  int64_t state_bytes() const override;

  // Exact-resume serialization: auxiliary moments, projection seeds, step
  // counters and limiter norms (plus the dense fallback's moments).
  bool save_state(std::FILE* f, const nn::ParamList& params) const override;
  bool load_state(std::FILE* f, const nn::ParamList& params) override;
  bool merge_state(std::FILE* f, const nn::ParamList& params) override;

  // Recovery hooks (divergence watchdog): re-derive every per-parameter
  // projection seed (random projections only — the SVD ablation's projector
  // is data-dependent and refreshes itself), and tighten the norm-growth
  // limiter toward gamma = 1 for the current and all future states.
  int64_t reseed_projection(uint64_t salt) override;
  bool tighten_norm_limiter(float factor) override;

  // Instrumentation for the Fig. 4 / Fig. 8 reproduction: the scaling
  // factors computed at the most recent step for the parameter in `slot`
  // (nullptr until its first step, or if it took the dense fallback).
  const std::vector<float>* last_scaling(int slot) const;

  static std::unique_ptr<Apollo> standard(ApolloConfig cfg) {
    return std::make_unique<Apollo>(cfg, "APOLLO");
  }
  static std::unique_ptr<Apollo> with_svd(ApolloConfig cfg) {
    cfg.proj = optim::ProjKind::kSvd;
    return std::make_unique<Apollo>(cfg, "APOLLO w. SVD");
  }
  static std::unique_ptr<Apollo> mini(uint64_t seed = 4242) {
    ApolloConfig c = ApolloConfig::mini();
    c.seed = seed;
    return std::make_unique<Apollo>(c, "APOLLO-Mini");
  }

 protected:
  const char* step_trace_name() const override { return "Apollo::step"; }

 private:
  struct State : optim::SubspaceSlot {
    std::vector<float> last_scaling;  // instrumentation
  };

  // Per-step telemetry aggregated across matrix parameters (only filled
  // when APOLLO_METRICS is active). Reset in begin_step, committed in
  // end_step.
  struct StepStats {
    int64_t sites = 0;      // matrix params updated this step
    int64_t clipped = 0;    // norm-growth limiter activations
    int64_t refreshes = 0;  // projector re-seeds / SVD refreshes
  };

  // Pure routing predicate — nothing shape-dependent to verify.
  // lint:allow(check-shape-preconditions)
  bool projected(const nn::Parameter& p) const {
    // Rank-1 auxiliary space is meaningful for any matrix, so only 1-D
    // parameters take the dense fallback (plus degenerate tiny matrices for
    // ranks > smallest dim).
    return p.matrix_shaped &&
           std::min(p.value.rows(), p.value.cols()) >= cfg_.rank;
  }
  void update_matrix_param(nn::Parameter* p, State& s, StepStats* stats);

  ApolloConfig cfg_;
  std::string display_name_;
  optim::DenseAdamCore dense_;  // 1-D fallback (norm gains)
  std::vector<State> states_;   // indexed by slot
  Rng seeder_;
  StepStats stats_;         // current-step aggregation
  bool telemetry_ = false;  // snapshot of telemetry_enabled() for this step
};

}  // namespace apollo::core
