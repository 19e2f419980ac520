// Optimizer interface shared by AdamW, SGD, Adam-mini, GaLore, Fira, Flora,
// the LoRA-family adapters, the 8-bit baselines and the APOLLO series.
//
// An optimizer consumes the gradients accumulated in nn::Parameter::grad and
// mutates Parameter::value in place. The learning rate is pushed in every
// step by the scheduler (train/schedule.h). `state_bytes()` reports the
// *actual* bytes held in optimizer state, which the tests cross-check
// against the closed-form Table-1 formulas in sysmodel/memory_model.h.
//
// The update API is streaming: a step is
//
//     begin_step(params);
//     step_param(*params[i], i);   // once per parameter, in ANY order
//     end_step(params);
//
// begin_step performs every whole-step decision that must happen in a fixed
// order — the shared step-counter increment, RNG draws for projection seeds,
// state-slot allocation — so the per-parameter updates are order-independent
// and mathematically independent. That independence is what lets the fused
// trainer path (train/update_pipeline.h, --fused-update) apply
// step_param inside Tape::backward the moment a layer's gradient is final,
// keeping peak gradient memory at O(largest layer) instead of O(all
// parameters) — the paper's layer-wise gradient update (§5.4, Lv et al.
// 2023). These three hooks are the pipeline contract every optimizer family
// implements; slot-local specializations (INT8 weight requantization,
// block-streamed 8-bit moments) compose behind the same interface.
//
// Per-parameter state is keyed by the parameter's *slot* — its index in the
// canonical ParamList — which also fixes the save_state/load_state record
// order (unchanged from the pointer-keyed era, so v3 checkpoints stay
// byte-compatible). Every optimizer serializes through one codec
// (optim/state_codec.h) over the fields its state_fields hook lists.
//
// step(params) remains as a thin compatibility loop over the streaming API.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "nn/parameter.h"

namespace apollo::optim {

class StateCodec;
enum class CodecMode { kSave, kLoad, kMerge };

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  // --- streaming per-parameter update API --------------------------------

  // Advances the shared step counter and performs all order-sensitive
  // whole-step work (seed draws, projector-refresh decisions, slot
  // allocation) by iterating `params` in slot order. Overrides must call the
  // base first.
  virtual void begin_step(const nn::ParamList& params);
  // Applies this step's update to one parameter. `slot` is the parameter's
  // index in the ParamList passed to begin_step. Calls between a
  // begin_step/end_step pair may arrive in any order; each parameter exactly
  // once.
  virtual void step_param(nn::Parameter& p, int slot) = 0;
  // Whole-step epilogue: deferred order-sensitive work (ReLoRA merges,
  // telemetry flush) and the post-step finite check. Overrides call the base
  // last.
  virtual void end_step(const nn::ParamList& params);

  // Two-phase compatibility path: begin → every param in slot order → end.
  void step(const nn::ParamList& params);

  virtual std::string name() const = 0;
  virtual int64_t state_bytes() const = 0;

  // State serialization for exact training resume, one format for every
  // optimizer (optim/state_codec.h): t_, then the fields state_fields
  // lists. `params` fixes the slot order and every field's expected shape.
  // False on a short write, or on bytes that do not describe state these
  // parameters could hold. Virtual only so a wrapper can forward to the
  // optimizer it wraps; no optimizer overrides them.
  virtual bool save_state(std::FILE* f, const nn::ParamList& params) const;
  virtual bool load_state(std::FILE* f, const nn::ParamList& params);

  // --- ZeRO-1 optimizer-state sharding (src/dist) ------------------------
  // Restricts state *ownership* to the slots with `slot % world == rank`.
  // The trainer calls step_param only for owned slots; begin_step/end_step
  // still iterate every parameter so order-sensitive work (step counter,
  // seed draws, refresh decisions) stays identical across ranks. The
  // default unsharded configuration (world = 1) owns everything.
  void set_shard(int rank, int world);
  bool owns_slot(int slot) const {
    return shard_world_ <= 1 || slot % shard_world_ == shard_rank_;
  }

  // Merge-loads one rank's state shard (a blob that rank's save_state wrote
  // under its shard configuration) WITHOUT clearing state already merged
  // from other shards: per-slot metadata (step counts, projection seeds)
  // for every slot in the shard, heavy fields (moments, projectors) only for
  // the slots this instance owns. A full merge pass reconstructs the exact
  // pre-crash trajectory at 1/R resident bytes, and redistributes ownership
  // when the world changed width.
  virtual bool merge_state(std::FILE* f, const nn::ParamList& params);

  // Recovery hooks used by the divergence watchdog (train/resilience.h).
  // `reseed_projection` deterministically re-derives any internal
  // random-projection seeds from the old seed and `salt`, so a retry after
  // rollback explores a different subspace instead of replaying the diverged
  // one; returns the number of re-seeded states (0 = not applicable).
  virtual int64_t reseed_projection(uint64_t /*salt*/) { return 0; }
  // `tighten_norm_limiter` moves the norm-growth limiter's gamma toward 1:
  // gamma -> 1 + (gamma - 1) * factor, factor in (0, 1]. Returns false when
  // the optimizer has no limiter to tighten.
  virtual bool tighten_norm_limiter(float /*factor*/) { return false; }

  void set_lr(float lr) { lr_ = lr; }
  float lr() const { return lr_; }

  // Public view of the step trace label so train::UpdatePipeline's
  // begin/step_param/end sequence traces under the same slice name as the
  // monolithic step().
  const char* trace_name() const { return step_trace_name(); }

 protected:
  // Label for the step() trace slice. Must return a string literal (the
  // tracer stores the pointer, obs/trace.h).
  virtual const char* step_trace_name() const { return "Optimizer::step"; }

  // Lists this optimizer's state for the codec, in file order: header
  // fields (Rng streams), then per-slot sections. The default lists nothing,
  // so a stateless optimizer saves t_ alone.
  virtual void state_fields(StateCodec& /*c*/) {}

  float lr_ = 1e-3f;
  int64_t t_ = 0;
  int shard_rank_ = 0;
  int shard_world_ = 1;

 private:
  bool run_codec(std::FILE* f, const nn::ParamList& params, CodecMode mode);
};

// Hyper-parameters shared by every Adam-derived method (paper defaults).
struct AdamHyper {
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.f;
};

// Adam bias-correction factors 1 − β₁ᵗ / 1 − β₂ᵗ — the per-step bookkeeping
// every Adam-derived method used to recompute inline.
struct BiasCorrection {
  float c1 = 1.f;
  float c2 = 1.f;
};

inline BiasCorrection bias_correction(const AdamHyper& hp, int64_t t) {
  return {1.f - std::pow(hp.beta1, static_cast<float>(t)),
          1.f - std::pow(hp.beta2, static_cast<float>(t))};
}

// The one Adam moment update: advances m and v by the gradient element g and
// returns the normalized direction m̂/(√v̂+ε). AdamMoments runs every moment
// through it, at every precision (Adam-mini's per-row V is a different
// algorithm and keeps its own loop).
inline float adam_direction(float& m, float& v, float g, const AdamHyper& hp,
                            const BiasCorrection& bc) {
  m = hp.beta1 * m + (1.f - hp.beta1) * g;
  v = hp.beta2 * v + (1.f - hp.beta2) * g * g;
  return (m / bc.c1) / (std::sqrt(v / bc.c2) + hp.eps);
}

}  // namespace apollo::optim
