// Pre-training loop: batches from the synthetic corpus, forward/backward on
// a fresh tape per step, LR schedule pushed into the optimizer, optional
// INT8 weight store (Q- variants), periodic validation-perplexity
// checkpoints. Every experiment bench drives training through this one loop
// so methods differ *only* in the optimizer object passed in.
//
// With TrainConfig::resilience configured the loop additionally writes
// rotating crash-consistent checkpoints, auto-resumes from the newest good
// one, and runs the divergence watchdog (rollback + LR backoff on NaN/Inf
// or loss spikes) — see train/resilience.h and docs/RESILIENCE.md. With the
// default (disabled) resilience config the trajectory is bit-identical to
// the pre-resilience trainer.
#pragma once

#include <string>
#include <vector>

#include "core/quantized_weights.h"
#include "data/corpus.h"
#include "data/token_source.h"
#include "dist/communicator.h"
#include "nn/llama.h"
#include "optim/optimizer.h"
#include "train/resilience.h"

namespace apollo::train {

struct TrainConfig {
  int steps = 200;
  int batch = 4;
  // Gradient accumulation: each optimizer step accumulates `grad_accum`
  // micro-batches of `batch` sequences (the paper's fixed-total-batch
  // protocol: methods with less memory use bigger micro-batches and fewer
  // accumulation steps for the same total batch).
  int grad_accum = 1;
  float lr = 0.01f;          // the paper's untuned APOLLO/GaLore default
  float warmup_frac = 0.1f;
  float final_lr_frac = 0.1f;
  int eval_every = 0;        // 0 ⇒ evaluate only after the final step
  int eval_batches = 8;
  uint64_t data_seed = 7;
  uint64_t val_seed = 7777;
  bool record_step_losses = false;  // per-step training loss (Fig. 3)
  // Fused update driver: apply step_param() to each parameter the moment
  // backward() finalizes its gradient, then free that gradient — so at
  // most one parameter gradient is live at a time instead of all of them.
  // Trainer::run runs one step sequence for both drivers; the fused one
  // closes the step's loss (DDP sum, watchdog loss check, learning rate)
  // before its last backward, because that backward applies the update.
  // Bit-identical to the classic driver, and composes with gradient
  // accumulation (micro-batches 0..accum-2 stash complete per-micro
  // gradients at leaf-completion), quantized weights (per-slot in-place
  // requantization) and fault injection (nan_grad injects at
  // leaf-completion; under the watchdog that slot is not stepped) — see
  // train/update_pipeline.h.
  bool fused_update = false;
  // Fault tolerance: rotating checkpoints, auto-resume, divergence
  // watchdog. Default-disabled (empty ckpt_dir, watchdog off).
  ResilienceConfig resilience;
};

struct EvalPoint {
  int step = 0;
  double val_loss = 0;
  double perplexity = 0;
};

struct TrainResult {
  std::vector<EvalPoint> curve;
  double final_perplexity = 0;
  std::vector<float> step_losses;
  int64_t optimizer_state_bytes = 0;
  int64_t peak_activation_bytes = 0;
  // High-water marks from the autograd tape (bytes): parameter gradients
  // alone, and activations + parameter gradients + interior gradients.
  // Under the fused path peak_grad_bytes collapses to roughly the largest
  // single parameter instead of the full parameter count. With
  // grad_accum > 1 the fused figures include the live accumulation stash
  // (complete per-slot gradients held across micro-batches), so the
  // collapse applies to the current tape's share only.
  int64_t peak_grad_bytes = 0;
  int64_t peak_total_bytes = 0;
  // Recovery bookkeeping (all zero on a fault-free non-resilient run).
  int64_t resumed_from_step = 0;   // > 0 when auto-resume kicked in
  int rollbacks = 0;               // watchdog-triggered rollbacks
  int checkpoints_saved = 0;       // rotating checkpoint commits
  int corrupt_checkpoints_skipped = 0;  // by resume and rollback scans
  bool diverged = false;  // aborted after the retry budget was exhausted
  std::string divergence_diagnostics;
};

// Mean cross-entropy over a validation set (forward only).
double validation_loss(nn::LlamaModel& model, const data::ValidationSet& vs);

class Trainer {
 public:
  Trainer(nn::LlamaModel& model, optim::Optimizer& opt,
          const data::TokenSource& corpus, const TrainConfig& cfg);

  // Enable Q- mode: weights persist INT8 between steps.
  void set_quantized_weights(core::QuantizedWeightStore* store) {
    qstore_ = store;
  }

  // Enable multi-process data parallelism (docs/DISTRIBUTED.md). Each step
  // deals `world` micro-batches of the common data stream in rank order and
  // keeps the rank-th, all-reduces gradients (and the loss) with the
  // deterministic rank-ordered sum, and runs ZeRO-1: the optimizer updates
  // only its owned slot shard and the owner broadcasts refreshed
  // parameters. The loss/grad-norm trajectory is bit-identical to a
  // single-process run with `grad_accum = world` at the same micro-batch
  // size, and so is every rank's rollback under the watchdog. Requires
  // grad_accum == 1 and no quantized weights; composes with the fused
  // update path.
  void set_communicator(dist::Communicator* comm) { comm_ = comm; }

  TrainResult run();

 private:
  nn::LlamaModel& model_;
  optim::Optimizer& opt_;
  const data::TokenSource& corpus_;
  TrainConfig cfg_;
  core::QuantizedWeightStore* qstore_ = nullptr;
  dist::Communicator* comm_ = nullptr;
};

}  // namespace apollo::train
