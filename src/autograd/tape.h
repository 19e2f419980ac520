// Tape-based reverse-mode automatic differentiation over Matrix.
//
// A Tape is rebuilt every training step: parameters enter as *leaf* vars that
// reference external value/grad storage (owned by the nn::Model), ops append
// nodes that own their forward values and a backward closure, and
// backward(loss) runs the closures in reverse topological (= insertion)
// order. The op set is exactly what a LLaMA-style decoder needs; every op's
// backward is validated against central finite differences in
// tests/autograd_test.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "tensor/matrix.h"

namespace apollo::ag {

// Opaque handle to a tape node.
struct Var {
  int32_t id = -1;
  bool valid() const { return id >= 0; }
};

class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // --- graph construction -------------------------------------------------

  // Trainable leaf: `value` is read during forward, gradients are
  // *accumulated* into `grad`. The caller either pre-sizes and zeroes
  // `grad` (legacy path) or leaves it empty — an empty grad is sized and
  // zero-filled on first touch during backward (streaming path), so a
  // parameter gradient only counts toward the tape's bytes while it is
  // live. The accounting is logical: a released gradient's storage goes
  // to Matrix's per-thread cache, and the next gradient of that size
  // reuses it.
  Var leaf(const Matrix* value, Matrix* grad);

  // Non-trainable input (owned copy, no gradient).
  Var constant(Matrix value);

  // C = A·B
  Var matmul(Var a, Var b);
  // C = A·Bᵀ — the Linear-layer product for weights stored (out, in).
  Var matmul_bt(Var a, Var b);
  // C = A + B (same shape)
  Var add(Var a, Var b);
  // C = A ⊙ B (same shape)
  Var mul(Var a, Var b);
  // C = s·A
  Var scale(Var a, float s);
  // SiLU activation x·σ(x) (LLaMA MLP nonlinearity).
  Var silu(Var a);
  // Row-wise RMSNorm with learned gain: y_i = x_i / rms(x_i) ⊙ w, w is 1×n.
  Var rmsnorm(Var x, Var weight, float eps = 1e-6f);
  // Gather rows of `table` (vocab×dim) by token id → (T×dim).
  Var embedding(Var table, std::vector<int32_t> ids);
  // Rotary position embedding applied per head; positions restart every
  // `seq_len` rows (inputs are (batch·seq_len)×dim).
  Var rope(Var x, int n_heads, int seq_len, float base = 10000.f);
  // Causal multi-head self-attention over flattened (batch·seq_len)×dim
  // Q, K, V. Softmax probabilities are saved for backward.
  Var causal_attention(Var q, Var k, Var v, int n_heads, int seq_len);
  // Mean token cross-entropy of logits (T×V) against targets (−1 = ignore).
  // Returns a 1×1 var.
  Var cross_entropy(Var logits, std::vector<int32_t> targets);
  // Scalar ⟨a, w⟩ with a fixed weight matrix — the reduce-to-scalar used by
  // gradient-checking tests and diagnostic probes.
  Var dot(Var a, Matrix weights);

  // --- execution -----------------------------------------------------------

  // Seed d(loss) = `seed` and run all backward closures. `loss` must be
  // 1×1. A seed of 1/k implements mean-reduction over k gradient-
  // accumulation micro-batches.
  void backward(Var loss, float seed = 1.f);

  const Matrix& value(Var v) const;
  // Gradient of a node (lazily allocated, zero-initialized). For leaves this
  // is the external grad matrix.
  Matrix& grad(Var v);
  // Inspection-only gradient access: nullptr when nothing has been
  // accumulated for `v`. Unlike grad(), never allocates — probing a dead
  // branch does not inflate activation memory.
  const Matrix* grad_if_ready(Var v) const;
  bool requires_grad(Var v) const;

  // Total bytes held by forward values + saved attention probabilities —
  // feeds the activation-memory sanity checks. Under gradient release this
  // is the *current* footprint (it shrinks during backward); use
  // peak_activation_bytes() for the high-water mark.
  int64_t activation_bytes() const;

  // --- streaming / fused-update support ------------------------------------

  // Gradient-release mode: after backward() is done with a node — its
  // closure has run, or it was skipped — the node's owned forward value,
  // interior gradient, and saved tensors are freed immediately. Safe
  // because a closure only ever reads the values/gradients of nodes with
  // ids it can still reach: its own (processed right before the release)
  // and its inputs' (strictly lower ids, processed later).
  void set_gradient_release(bool on) { gradient_release_ = on; }

  // Callback fired during backward() at the point where a leaf's external
  // gradient is final: every consumer of the leaf has a higher id than the
  // leaf itself, so when the reverse sweep reaches the leaf no remaining
  // closure can read its value or gradient — the caller may consume the
  // gradient, update the value in place, and free the gradient without
  // perturbing the rest of the pass. Untouched (dead) leaves do not fire.
  void set_leaf_callback(std::function<void(const Matrix*, Matrix*)> cb) {
    leaf_cb_ = std::move(cb);
  }

  // Frees a leaf's external gradient (typically from inside the leaf
  // callback, after the optimizer consumed it) and keeps the gradient-byte
  // accounting consistent.
  void release_leaf_grad(Matrix* grad);

  // Moves a leaf's external gradient out of the tape's accounting without
  // freeing the buffer — the fused gradient-accumulation path stashes the
  // finalized per-micro gradient and keeps it alive across tapes. Must be
  // used instead of moving from *grad directly: release_leaf_grad subtracts
  // the matrix's size at call time, so a plain move would leak the byte
  // accounting.
  Matrix take_leaf_grad(Matrix* grad);

  // High-water marks over this tape's lifetime (bytes):
  //   peak_grad_bytes        leaf (parameter) gradients
  //   peak_activation_bytes  owned forward values + saved tensors
  //   peak_total_bytes       both of the above + interior gradients
  int64_t peak_grad_bytes() const { return peak_grad_bytes_; }
  int64_t peak_activation_bytes() const { return peak_act_bytes_; }
  int64_t peak_total_bytes() const { return peak_total_bytes_; }

 private:
  struct Node {
    Matrix value;                   // owned forward value (unused for leaves)
    const Matrix* ext_value = nullptr;
    Matrix* ext_grad = nullptr;     // leaf gradient sink
    Matrix grad;                    // interior gradient (lazy)
    bool grad_ready = false;        // interior grad allocated+zeroed?
    bool requires_grad = false;
    const char* op = "leaf";        // op name, for diagnostics
    int64_t extra_bytes = 0;        // saved tensors beyond `value`
    std::function<void(Tape&)> backward;
  };

  Var push(Node n);
  void bump_peaks();
  void release_node(Node& n);
  Node& node(Var v) {
    APOLLO_DCHECK(v.valid() && v.id < static_cast<int32_t>(nodes_.size()));
    return nodes_[static_cast<size_t>(v.id)];
  }
  const Node& node(Var v) const {
    APOLLO_DCHECK(v.valid() && v.id < static_cast<int32_t>(nodes_.size()));
    return nodes_[static_cast<size_t>(v.id)];
  }

  std::vector<Node> nodes_;

  bool gradient_release_ = false;
  std::function<void(const Matrix*, Matrix*)> leaf_cb_;
  // Lowest leaf id per external grad sink — the point in the reverse sweep
  // where that gradient is final (a parameter may be registered as a leaf
  // more than once). Built incrementally by leaf().
  std::unordered_map<const Matrix*, int32_t> first_leaf_of_;
  // Live byte counters and their high-water marks (see peak_* accessors).
  int64_t live_act_bytes_ = 0;
  int64_t live_leaf_grad_bytes_ = 0;
  int64_t live_interior_grad_bytes_ = 0;
  int64_t peak_act_bytes_ = 0;
  int64_t peak_grad_bytes_ = 0;
  int64_t peak_total_bytes_ = 0;
};

}  // namespace apollo::ag
