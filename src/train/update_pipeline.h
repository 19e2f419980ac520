// The per-leaf update machinery of Trainer::run's one step sequence:
// "gradient ready → (accumulate) → reduce-scatter → step → requantize →
// release → all-gather", so gradient accumulation, ZeRO-1 data parallelism,
// INT8 quantized weights, 8-bit optimizer state and fault injection compose
// with both update drivers.
//
// One pipeline instance is armed per optimizer step. The two drivers:
//
//   fused  — micro-batches 0..accum-2 run backward with stash_leaf() as the
//            tape leaf callback: each finalized per-micro gradient is summed
//            into a per-slot stash with the same left-to-right association
//            as the classic accumulation loop (move the first complete
//            gradient, then `a[k] += g[k]`). The final micro-batch runs with
//            on_final_leaf(): complete the accumulation, inject any armed
//            nan_grad fault, reduce-scatter the leaf to its owner, which
//            records the slot norm, applies step_param and requantizes the
//            slot's INT8 weights in place; release the gradient, all-gather
//            the owner's weights. finish_fused() sweeps leaves the final
//            graph never touched (stashed-but-dead and truly dead), gathers
//            their weights and the slot norms, and runs end_step.
//
//   classic — per-micro stash_param_grads(), then finalize_classic_grads()
//            (restore + zero-fill + fault injection), reduce_classic_grads()
//            (one reduce-scatter over every gradient, owned slot norms,
//            one norm exchange), grad_norm(), and apply_classic() (begin →
//            slot-order owned step_param + requantize → end → one
//            all-gather of every weight).
//
// Armed with the watchdog on, neither driver steps a slot whose recorded
// gradient norm is not finite: the trainer rolls such a step back. The
// fused driver steps slots inside backward, before the step's gradient
// norm is known, so this per-slot guard is what keeps the NaN out of its
// optimizer state and INT8 residuals; the rollback restores both (the
// state from the checkpoint, the codes by requantizing the weights).
//
// Under a world (dist::Communicator) slot i is owned by rank i % W, the
// ZeRO-1 shard of Optimizer::owns_slot. After the reduce-scatter only the
// owner holds slot i's summed gradient; a non-owned Parameter::grad is
// rank-local and stale. Nothing reads it: step_param runs on owned slots
// only, and no begin_step or end_step reads a gradient. Each slot's norm is
// likewise computed by its owner and exchanged once per step, only when
// norms are wanted.
//
// Bit-identity between the two drivers rests on three invariants: the
// accumulation association is identical; per-slot norms are reduced with the
// same single-rounding std::fma in slot order (grad_norm()); and every
// slot-local update (optimizer step_param, per-slot requantization RNG
// stream) is independent of the order slots complete in.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "autograd/tape.h"
#include "core/quantized_weights.h"
#include "dist/communicator.h"
#include "nn/parameter.h"
#include "optim/optimizer.h"
#include "tensor/matrix.h"

namespace apollo::train {

class UpdatePipeline {
 public:
  UpdatePipeline(optim::Optimizer& opt, dist::Communicator* comm,
                 core::QuantizedWeightStore* qstore);

  // Resets per-step state. `params` must outlive the step (the trainer's
  // step-local ParamList). `want_norm` controls whether per-slot Frobenius
  // norms are recorded for the gradient-norm reduction; `watchdog` records
  // them too and skips the update of a slot whose norm is not finite.
  void arm(const nn::ParamList& params, bool want_norm, int accum,
           bool watchdog = false);

  // Arms a one-shot nan_grad fault: slot 0's first gradient element is
  // poisoned after accumulation completes, before any reduce/step — the
  // same observation point in both drivers.
  void arm_nan_grad() { inject_nan_ = true; }

  // --- fused driver ------------------------------------------------------
  // Leaf callback for micro-batches 0..accum-2: accumulate into the stash.
  void stash_leaf(Matrix* g, ag::Tape& tape);
  // opt.begin_step, after the trainer has set the step's learning rate.
  void begin_updates();
  // Leaf callback for the final micro-batch: finish accumulation and apply.
  void on_final_leaf(Matrix* g, ag::Tape& tape);
  // Stashed-but-dead and dead-leaf sweep, one all-gather of their weights
  // and the slot norms, then opt.end_step.
  void finish_fused();

  // --- classic driver ----------------------------------------------------
  // Accumulate the current complete per-micro gradients (accum > 1).
  void stash_param_grads();
  // Move the accumulated gradients back into Parameter::grad, zero-fill
  // leaves outside every micro-batch's graph, apply an armed fault.
  void finalize_classic_grads();
  // Rank-ordered reduce-scatter of every parameter gradient to its owner,
  // then the owned slots' norms and their exchange (when norms are wanted).
  void reduce_classic_grads();
  // begin → slot-order owned step_param + requantize → end → all-gather.
  void apply_classic();

  // --- both drivers --------------------------------------------------------
  // Bytes currently held by stashed accumulated gradients (folded into the
  // trainer's peak-memory accounting: the stash is live across micro tapes).
  int64_t stash_bytes() const { return stash_bytes_; }
  // Global gradient norm: slot-ordered std::fma reduction of the per-slot
  // norms (valid after reduce_classic_grads or finish_fused).
  double grad_norm() const;

 private:
  size_t slot_for(const Matrix* g) const;
  int owner(size_t slot) const { return static_cast<int>(slot) % world_; }
  // Under a world, all-gathers segs_ and, when `with_norms`, each slot's
  // norm from the slot's owner.
  void gather(bool with_norms);
  // Owned-slot update: optimizer step, then in-place INT8 requantization;
  // nothing when the watchdog is armed and the slot's norm is not finite.
  void update_slot(size_t slot);

  optim::Optimizer& opt_;
  dist::Communicator* comm_;
  core::QuantizedWeightStore* qstore_;
  const nn::ParamList* params_ = nullptr;
  bool want_norm_ = false;
  bool watchdog_ = false;
  int accum_ = 1;
  int world_ = 1;
  bool inject_nan_ = false;
  int64_t stash_bytes_ = 0;
  std::unordered_map<const Matrix*, size_t> slot_of_;
  std::vector<Matrix> stash_;    // per-slot accumulated gradients
  std::vector<double> norms_;    // per-slot Frobenius norms
  std::vector<char> stepped_;    // slots updated by the final-micro callback
  std::vector<dist::Segment> segs_;  // the current collective's segments
  std::vector<float> norm_bits_;     // norms_ staged for the exchange
};

}  // namespace apollo::train
