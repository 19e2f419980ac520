// INT8 weight store for Q-APOLLO / Q-APOLLO-Mini (and the Q-GaLore
// baseline): the persistent copy of every 2-D weight lives group-quantized
// (group size 128); the fp32 Parameter::value is just a working buffer.
//
// Streaming training cycle per step (fused or classic, they share the same
// per-slot sequence through train::UpdatePipeline):
//   forward/backward on the dequantized values already in Parameter::value →
//   optimizer.step_param(p, slot) → requantize_param(slot)
// requantize_param absorbs the fp32 update back into the INT8 codes with
// stochastic rounding and a per-group error-feedback residual carried
// between steps (LDAdam-style: e_{t+1} = (v + e_t) − Q(v + e_t)), then
// leaves Parameter::value equal to the dequantized store — so the weights
// entering the next step always equal the quantized ones and no whole-model
// dequantization pass is needed on the hot path. Each slot owns a private
// stochastic-rounding RNG stream split from the store seed in slot order,
// which makes requantization order-independent: the fused path (backward
// completion order) and the classic loop (slot order) produce bit-identical
// codes, scales, and residuals.
//
// The store has no file format of its own: trainer checkpoints carry the
// fp32 weights only. Resume and watchdog rollback restore them and call
// requantize_from_params(), which absorbs them back into the codes from
// zeroed residuals. dequantize_into_params() rebuilds the fp32 working
// buffers wholesale from the codes (construction). 1-D gains stay fp32
// (they are negligible), exactly as in Q-GaLore.
#pragma once

#include <vector>

#include "nn/parameter.h"
#include "quant/quant.h"

namespace apollo::core {

class QuantizedWeightStore {
 public:
  QuantizedWeightStore(const nn::ParamList& params, uint64_t seed,
                       int64_t group = 128);

  // Write dequantized weights into Parameter::value for forward/backward.
  // Cold path (construction). Also resets the per-group residuals to zero
  // (the store is the new ground truth).
  void dequantize_into_params();

  // Absorb one parameter's fp32 update back into its INT8 codes in place
  // (stochastic rounding + residual error feedback) and refresh its
  // Parameter::value from the store. `slot` is the ParamList index; slots
  // that are not quantized (1-D gains) are a no-op. Zero steady-state
  // allocation — this is an apollo-analyze hot root.
  void requantize_param(int slot);

  // Absorb every slot's Parameter::value into the store, starting from
  // zeroed residuals. Cold path: after resume and watchdog rollback have
  // restored fp32 weights from a checkpoint, which carries no residuals.
  // The residuals of the abandoned steps (NaN, after a NaN gradient reached
  // the fused path) must not leak into the restored weights.
  void requantize_from_params();

  // Persistent weight memory (INT8 data + group scales + fp32 residuals +
  // fp32 leftovers). Residuals are charged here because they live as long as
  // the store — the sysmodel streaming-quantized column mirrors this.
  int64_t weight_bytes() const;

 private:
  struct Slot {
    nn::Parameter* param;
    GroupQuantized store;
    std::vector<float> residuals;  // one error-feedback scalar per group
    Rng rng;                       // private stochastic-rounding stream
  };
  std::vector<Slot> slots_;
  std::vector<int> slot_index_;  // ParamList slot → slots_ index, or −1
  std::vector<nn::Parameter*> fp32_params_;  // 1-D, kept in full precision
  int64_t group_;
};

}  // namespace apollo::core
