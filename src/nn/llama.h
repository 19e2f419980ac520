// LLaMA-family decoder-only transformer: RMSNorm (pre-norm), rotary position
// embeddings, multi-head causal attention, SwiGLU MLP, no biases — the same
// architecture family the paper pre-trains at 60M…7B scale. Model sizes here
// are scaled down (see DESIGN.md §2) but the per-weight shapes keep the
// paper's m×n matrix structure that all optimizers operate on.
#pragma once

#include <cstdint>
#include <vector>

#include "autograd/tape.h"
#include "nn/parameter.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace apollo::nn {

struct LlamaConfig {
  int vocab = 256;
  int hidden = 64;
  int intermediate = 176;  // ~2.75× hidden, LLaMA's SwiGLU sizing
  int n_heads = 4;
  int n_layers = 2;
  int seq_len = 32;
  float rope_base = 10000.f;
  float init_std = 0.02f;

  int64_t param_count() const;
};

// Proxy configurations standing in for the paper's model ladder. Hidden
// sizes shrink ~32× but layer-count ratios and SwiGLU sizing follow Table 8.
LlamaConfig llama_60m_proxy();
LlamaConfig llama_130m_proxy();
LlamaConfig llama_350m_proxy();
LlamaConfig llama_1b_proxy();
LlamaConfig llama_7b_proxy();

class LlamaModel {
 public:
  LlamaModel(const LlamaConfig& cfg, uint64_t seed);

  const LlamaConfig& config() const { return cfg_; }

  // All trainable parameters (stable pointers).
  ParamList parameters();
  int64_t param_count() const;

  void zero_grads();

  // Builds the forward graph on `tape` for a flattened (batch·seq_len) token
  // stream and returns the logits var (T×vocab).
  ag::Var forward(ag::Tape& tape, const std::vector<int32_t>& ids);

  // forward + mean cross-entropy against `targets` (−1 entries ignored).
  ag::Var loss(ag::Tape& tape, const std::vector<int32_t>& ids,
               const std::vector<int32_t>& targets);

  // Copies of weights for checkpoint/restore in experiments.
  std::vector<Matrix> snapshot() const;
  void restore(const std::vector<Matrix>& snap);

  // Read-only structural access for the KV-cached decoder
  // (serve/batcher.h).
  struct Layer {
    Parameter* attn_norm;
    Parameter* wq;
    Parameter* wk;
    Parameter* wv;
    Parameter* wo;
    Parameter* mlp_norm;
    Parameter* w_gate;
    Parameter* w_up;
    Parameter* w_down;
  };
  const std::vector<Layer>& layers() const { return layers_; }
  const Parameter& tok_embed() const { return *tok_embed_; }
  const Parameter& final_norm() const { return *final_norm_; }
  const Parameter& lm_head() const { return *lm_head_; }

 private:

  Parameter* add_param(const std::string& name, int64_t rows, int64_t cols,
                       bool matrix = true);

  LlamaConfig cfg_;
  std::vector<std::unique_ptr<Parameter>> storage_;
  Parameter* tok_embed_ = nullptr;  // vocab × hidden
  std::vector<Layer> layers_;
  Parameter* final_norm_ = nullptr;
  Parameter* lm_head_ = nullptr;  // vocab × hidden
};

}  // namespace apollo::nn
