// Continuous-batching decoder: one model, up to max_batch in-flight
// sequences, one token per lane per decode_step (DESIGN.md §14).
//
// Prefill piggybacks on decode: a lane that still has prompt tokens left
// contributes its next prompt token to the step instead of a sampled one,
// so admission never stalls lanes that are mid-generation and every step
// is a uniform (b × hidden) batch. All activations, KV rows and sampling
// scratch are allocated at construction — decode_step is a hot root under
// the static analyzer's zero-allocation rule.
//
// Weights: every projection is the dispatched gemm_bt on the model's own
// Parameter values (out × in rows), so the decoder holds no copy of any
// weight and always decodes with the weights as they are now. A band of at
// most one register tile of lanes reads those rows in place (DESIGN.md §12).
//
// Numerics: per-lane output is a pure function of (weights, prompt,
// GenParams). gemm_bt accumulates each output row over k in an order that
// depends only on the shape of that row's dot products, never on which
// other rows share the batch or how B is read, and attention/sampling are
// strictly per-lane — so a lane's tokens are bit-identical whether it runs
// alone or beside 15 neighbours (tests/serve_test.cpp pins this).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/llama.h"
#include "serve/kv_cache.h"
#include "serve/request.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace apollo::serve {

// Per-lane result of the latest decode_step.
struct DecodeOut {
  int32_t token = -1;   // sampled token (valid when emitted)
  bool emitted = false; // false during prefill steps
  bool done = false;    // lane finished this step; caller must release()
  FinishReason finish = FinishReason::kLength;
};

class BatchDecoder {
 public:
  // The KV arena is sized max_batch × n_layers × seq_len × hidden here;
  // callers budget max_batch beforehand via KvArena::bytes_per_slot.
  BatchDecoder(nn::LlamaModel& model, int max_batch);

  int max_batch() const { return max_batch_; }
  int active() const { return active_; }
  bool has_free_lane() const { return active_ < max_batch_; }
  int64_t kv_bytes() const { return arena_.bytes(); }

  // Claims a free lane for a new request (cold path; copies the prompt).
  // An empty prompt is conditioned on token 0 (a BOS stand-in).
  // Returns the lane index, or -1 when all lanes are occupied.
  int admit(const std::vector<int32_t>& prompt, const GenParams& params);

  // Frees a lane and scrubs its KV slot. Valid after output(lane).done or
  // to evict an expired/shutdown request early.
  void release(int lane);

  bool lane_active(int lane) const { return lanes_[static_cast<size_t>(lane)].occupied; }

  const DecodeOut& output(int lane) const {
    return outputs_[static_cast<size_t>(lane)];
  }

  // The vocab-length logits row the latest decode_step computed for
  // `lane` (the prediction after the token it fed), or nullptr when the
  // lane took no part in that step. Valid until the next decode_step.
  const float* last_logits(int lane) const;

  // Runs one batched token step for every occupied lane. No-op when idle.
  // Zero-allocation: enforced by tools/analyze pass_hotpath.
  void decode_step();

 private:
  struct Lane {
    bool occupied = false;
    std::vector<int32_t> prompt;
    size_t prompt_pos = 0;  // next prompt index to feed
    int64_t position = 0;   // tokens fed so far (ring write index % window)
    int generated = 0;
    int32_t last_token = 0;
    GenParams params;
    Rng rng{1};
  };

  // C(rows × out) = A(rows × in) · wᵀ for a weight w stored out × in, C
  // zeroed first; band-parallel over rows with the same grain policy as
  // tensor::matmul.
  void gemm_rows(float* c, const float* a, const Matrix& w,
                 int64_t rows) const;

  // In-place rotary embedding on one hidden-length row at position `pos`,
  // reading the precomputed cos/sin table.
  void rope_row(float* row, int pos) const;

  // Greedy / temperature / top-k / top-p pick from logits row `r`, drawing
  // from the lane's seeded stream; uses preallocated scratch only.
  int32_t sample_row(int r, Lane& lane);

  nn::LlamaModel& model_;
  int max_batch_;
  int active_ = 0;
  KvArena arena_;
  std::vector<Lane> lanes_;
  std::vector<DecodeOut> outputs_;

  // RoPE table: window × (head_dim/2) cos and sin values.
  std::vector<float> rope_cos_, rope_sin_;

  // Dense gather of occupied lanes, rebuilt each step; the first
  // step_rows_ entries are the latest step's.
  std::vector<int> rows_;
  int64_t step_rows_ = 0;

  // Step activations, max_batch rows each.
  std::vector<float> x_, xn_, q_, k_, v_, att_, proj_;
  std::vector<float> gate_, up_, sig_;  // max_batch × intermediate
  std::vector<float> logits_;        // max_batch × vocab
  std::vector<float> scores_;        // max_batch × window

  // Sampling scratch (vocab capacity, used with explicit counts).
  std::vector<int32_t> cand_;
  std::vector<double> mass_, probs_;
};

// Decodes one request to completion on a dedicated one-lane BatchDecoder
// and returns its generated tokens (the prompt excluded). max_tokens <= 0
// returns no tokens. This is the single-request entry point (apollo-eval
// --generate); a lane's tokens do not depend on its batch, so the result
// equals what ServeEngine streams for the same (prompt, params).
std::vector<int32_t> generate(nn::LlamaModel& model,
                              const std::vector<int32_t>& prompt,
                              const GenParams& params);

}  // namespace apollo::serve
