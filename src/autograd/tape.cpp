// Core tape mechanics + linear-algebra ops. Neural-network specific ops live
// in ops_nn.cpp and ops_attention.cpp.
#include "autograd/tape.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/check.h"
#include "tensor/finite.h"
#include "tensor/ops.h"

namespace apollo::ag {

Var Tape::push(Node n) {
  live_act_bytes_ +=
      n.value.size() * static_cast<int64_t>(sizeof(float)) + n.extra_bytes;
  nodes_.push_back(std::move(n));
  bump_peaks();
  return Var{static_cast<int32_t>(nodes_.size() - 1)};
}

void Tape::bump_peaks() {
  peak_act_bytes_ = std::max(peak_act_bytes_, live_act_bytes_);
  peak_grad_bytes_ = std::max(peak_grad_bytes_, live_leaf_grad_bytes_);
  peak_total_bytes_ =
      std::max(peak_total_bytes_, live_act_bytes_ + live_leaf_grad_bytes_ +
                                      live_interior_grad_bytes_);
}

void Tape::release_node(Node& n) {
  live_act_bytes_ -=
      n.value.size() * static_cast<int64_t>(sizeof(float)) + n.extra_bytes;
  live_interior_grad_bytes_ -=
      n.grad.size() * static_cast<int64_t>(sizeof(float));
  n.value = Matrix();
  n.extra_bytes = 0;
  n.grad = Matrix();
  n.grad_ready = false;
  n.backward = nullptr;  // drops saved tensors captured by the closure
}

void Tape::release_leaf_grad(Matrix* grad) {
  APOLLO_CHECK(grad != nullptr);
  live_leaf_grad_bytes_ -=
      grad->size() * static_cast<int64_t>(sizeof(float));
  *grad = Matrix();
}

Matrix Tape::take_leaf_grad(Matrix* grad) {
  APOLLO_CHECK(grad != nullptr);
  live_leaf_grad_bytes_ -=
      grad->size() * static_cast<int64_t>(sizeof(float));
  // A moved-from Matrix is 0×0, so the leaf reads as empty again and the
  // next backward re-creates it zero-filled.
  return std::move(*grad);
}

Var Tape::leaf(const Matrix* value, Matrix* grad) {
  APOLLO_CHECK(value != nullptr);
  Node n;
  n.ext_value = value;
  n.ext_grad = grad;
  n.requires_grad = grad != nullptr;
  if (grad != nullptr) {
    APOLLO_CHECK_MSG(grad->empty() || (grad->rows() == value->rows() &&
                                       grad->cols() == value->cols()),
                     "leaf grad must be empty or sized to match value");
    // First registration of this gradient sink: remember the id (the point
    // in the reverse sweep where the gradient is final) and count its bytes
    // once even if the parameter appears as a leaf again.
    if (first_leaf_of_
            .emplace(grad, static_cast<int32_t>(nodes_.size()))
            .second)
      live_leaf_grad_bytes_ +=
          grad->size() * static_cast<int64_t>(sizeof(float));
  }
  return push(std::move(n));
}

Var Tape::constant(Matrix value) {
  Node n;
  n.op = "constant";
  n.value = std::move(value);
  n.requires_grad = false;
  return push(std::move(n));
}

const Matrix& Tape::value(Var v) const {
  const Node& n = node(v);
  return n.ext_value != nullptr ? *n.ext_value : n.value;
}

bool Tape::requires_grad(Var v) const { return node(v).requires_grad; }

Matrix& Tape::grad(Var v) {
  Node& n = node(v);
  if (n.ext_grad != nullptr) {
    if (n.ext_grad->empty()) {
      // Streaming path: size and zero the parameter gradient on first
      // touch (reshape_discard zero-initializes, preserving accumulate
      // semantics).
      const Matrix& val = value(v);
      n.ext_grad->reshape_discard(val.rows(), val.cols());
      live_leaf_grad_bytes_ +=
          n.ext_grad->size() * static_cast<int64_t>(sizeof(float));
      bump_peaks();
    }
    return *n.ext_grad;
  }
  if (!n.grad_ready) {
    const Matrix& val = value(v);
    n.grad.reshape_discard(val.rows(), val.cols());
    n.grad_ready = true;
    live_interior_grad_bytes_ +=
        n.grad.size() * static_cast<int64_t>(sizeof(float));
    bump_peaks();
  }
  return n.grad;
}

const Matrix* Tape::grad_if_ready(Var v) const {
  const Node& n = node(v);
  if (n.ext_grad != nullptr)
    return n.ext_grad->empty() ? nullptr : n.ext_grad;
  return n.grad_ready ? &n.grad : nullptr;
}

int64_t Tape::activation_bytes() const {
  int64_t total = 0;
  for (const Node& n : nodes_)
    total += n.value.size() * static_cast<int64_t>(sizeof(float)) +
             n.extra_bytes;
  return total;
}

void Tape::backward(Var loss, float seed) {
  APOLLO_CHECK_MSG(value(loss).size() == 1, "loss must be a scalar");
  APOLLO_TRACE_SCOPE("Tape::backward", "autograd");
  const bool finite_mode = finite_checks_enabled();
  const bool trace_mode = obs::trace_enabled();
  if (obs::telemetry_enabled()) {
    static obs::Counter& ops =
        obs::Registry::instance().counter("autograd.backward.ops");
    static obs::Counter& passes =
        obs::Registry::instance().counter("autograd.backward.passes");
    ops.add(static_cast<int64_t>(nodes_.size()));
    passes.add(1);
  }
  grad(loss).fill(seed);
  for (int32_t id = loss.id; id >= 0; --id) {
    Node& n = nodes_[static_cast<size_t>(id)];
    // Skip nodes whose gradient was never touched (dead branches) —
    // including leaves whose external grad was left empty by the streaming
    // path.
    const bool untouched =
        (n.ext_grad == nullptr && !n.grad_ready) ||
        (n.ext_grad != nullptr && n.ext_grad->empty());
    if (n.requires_grad && !untouched) {
      // Every consumer of node `id` has already run, so its gradient is
      // fully accumulated here — the per-op checkpoint of the
      // numeric-safety mode.
      if (finite_mode)
        check_finite_or_die(*grad_if_ready(Var{id}), n.op,
                            "autograd backward");
      if (n.backward) {
        // Per-op slice: node op names are string literals, safe to store.
        if (trace_mode) obs::trace_begin(n.op, "autograd");
        n.backward(*this);
        if (trace_mode) obs::trace_end(n.op, "autograd");
      }
      if (n.ext_grad != nullptr && leaf_cb_) {
        auto it = first_leaf_of_.find(n.ext_grad);
        if (it != first_leaf_of_.end() && it->second == id)
          leaf_cb_(n.ext_value, n.ext_grad);
      }
    }
    // With gradient release on, nothing below `id` can read this node's
    // value or gradient anymore (inputs of later-processed closures all
    // have ids < their own index < id) — free it now.
    if (gradient_release_) release_node(n);
  }
  bump_peaks();
}

Var Tape::matmul(Var a, Var b) {
  Node n;
  n.op = "matmul";
  n.value = apollo::matmul(value(a), value(b));
  n.requires_grad = requires_grad(a) || requires_grad(b);
  Var out{static_cast<int32_t>(nodes_.size())};
  if (n.requires_grad) {
    n.backward = [a, b, out](Tape& t) {
      const Matrix& dc = t.grad(out);
      if (t.requires_grad(a)) apollo::matmul_bt(t.grad(a), dc, t.value(b), true);
      if (t.requires_grad(b)) apollo::matmul_at(t.grad(b), t.value(a), dc, true);
    };
  }
  return push(std::move(n));
}

Var Tape::matmul_bt(Var a, Var b) {
  Node n;
  n.op = "matmul_bt";
  n.value = apollo::matmul_bt(value(a), value(b));
  n.requires_grad = requires_grad(a) || requires_grad(b);
  Var out{static_cast<int32_t>(nodes_.size())};
  if (n.requires_grad) {
    n.backward = [a, b, out](Tape& t) {
      const Matrix& dc = t.grad(out);  // m×n where C = A(m×k)·Bᵀ(k×n)
      if (t.requires_grad(a)) apollo::matmul(t.grad(a), dc, t.value(b), true);
      if (t.requires_grad(b)) apollo::matmul_at(t.grad(b), dc, t.value(a), true);
    };
  }
  return push(std::move(n));
}

Var Tape::add(Var a, Var b) {
  APOLLO_CHECK(value(a).same_shape(value(b)));
  Node n;
  n.op = "add";
  n.value = value(a);
  add_inplace(n.value, value(b));
  n.requires_grad = requires_grad(a) || requires_grad(b);
  Var out{static_cast<int32_t>(nodes_.size())};
  if (n.requires_grad) {
    n.backward = [a, b, out](Tape& t) {
      const Matrix& dc = t.grad(out);
      if (t.requires_grad(a)) add_inplace(t.grad(a), dc);
      if (t.requires_grad(b)) add_inplace(t.grad(b), dc);
    };
  }
  return push(std::move(n));
}

Var Tape::mul(Var a, Var b) {
  APOLLO_CHECK(value(a).same_shape(value(b)));
  Node n;
  n.op = "mul";
  n.value = value(a);
  hadamard_inplace(n.value, value(b));
  n.requires_grad = requires_grad(a) || requires_grad(b);
  Var out{static_cast<int32_t>(nodes_.size())};
  if (n.requires_grad) {
    n.backward = [a, b, out](Tape& t) {
      const Matrix& dc = t.grad(out);
      if (t.requires_grad(a)) {
        Matrix tmp = dc;
        hadamard_inplace(tmp, t.value(b));
        add_inplace(t.grad(a), tmp);
      }
      if (t.requires_grad(b)) {
        Matrix tmp = dc;
        hadamard_inplace(tmp, t.value(a));
        add_inplace(t.grad(b), tmp);
      }
    };
  }
  return push(std::move(n));
}

Var Tape::scale(Var a, float s) {
  Node n;
  n.op = "scale";
  n.value = value(a);
  scale_inplace(n.value, s);
  n.requires_grad = requires_grad(a);
  Var out{static_cast<int32_t>(nodes_.size())};
  if (n.requires_grad) {
    n.backward = [a, s, out](Tape& t) { axpy(t.grad(a), s, t.grad(out)); };
  }
  return push(std::move(n));
}

Var Tape::dot(Var a, Matrix weights) {
  const Matrix& x = value(a);
  APOLLO_CHECK(x.same_shape(weights));
  Node n;
  n.op = "dot";
  n.value = Matrix(1, 1);
  double acc = 0;
  for (int64_t i = 0; i < x.size(); ++i)
    acc += static_cast<double>(x[i]) * weights[i];
  n.value[0] = static_cast<float>(acc);
  n.requires_grad = requires_grad(a);
  Var out{static_cast<int32_t>(nodes_.size())};
  if (n.requires_grad) {
    auto w = std::make_shared<Matrix>(std::move(weights));
    n.backward = [a, out, w](Tape& t) {
      axpy(t.grad(a), t.grad(out)[0], *w);
    };
  }
  return push(std::move(n));
}

}  // namespace apollo::ag
