#include "train/update_pipeline.h"

#include <cmath>
#include <cstring>

#include "obs/trace.h"
#include "tensor/check.h"
#include "tensor/ops.h"

namespace apollo::train {

UpdatePipeline::UpdatePipeline(optim::Optimizer& opt, dist::Communicator* comm,
                               core::QuantizedWeightStore* qstore)
    : opt_(opt), comm_(comm), qstore_(qstore) {}

void UpdatePipeline::arm(const nn::ParamList& params, bool want_norm,
                         int accum, bool watchdog) {
  params_ = &params;
  want_norm_ = want_norm || watchdog;
  watchdog_ = watchdog;
  accum_ = accum;
  world_ = comm_ != nullptr ? comm_->world() : 1;
  inject_nan_ = false;
  stash_bytes_ = 0;
  stash_.assign(params.size(), Matrix());
  norms_.assign(params.size(), 0.0);
  stepped_.assign(params.size(), 0);
  slot_of_.clear();
  slot_of_.reserve(params.size());
  for (size_t i = 0; i < params.size(); ++i) slot_of_[&params[i]->grad] = i;
}

size_t UpdatePipeline::slot_for(const Matrix* g) const {
  const auto it = slot_of_.find(g);
  APOLLO_CHECK_MSG(it != slot_of_.end(),
                   "leaf gradient is not a model parameter");
  return it->second;
}

void UpdatePipeline::update_slot(size_t slot) {
  if (watchdog_ && !std::isfinite(norms_[slot])) return;
  opt_.step_param(*(*params_)[slot], static_cast<int>(slot));
  if (qstore_ != nullptr) qstore_->requantize_param(static_cast<int>(slot));
}

void UpdatePipeline::stash_leaf(Matrix* g, ag::Tape& tape) {
  const size_t slot = slot_for(g);
  Matrix& a = stash_[slot];
  if (a.size() == 0) {
    // First complete per-micro gradient for this slot: move it, so the sum
    // lands in this buffer — the classic loop's exact association.
    stash_bytes_ += g->size() * static_cast<int64_t>(sizeof(float));
    a = tape.take_leaf_grad(g);
  } else {
    APOLLO_CHECK(a.size() == g->size());
    for (int64_t k = 0; k < a.size(); ++k) a[k] += (*g)[k];
    tape.release_leaf_grad(g);
  }
}

void UpdatePipeline::begin_updates() { opt_.begin_step(*params_); }

void UpdatePipeline::on_final_leaf(Matrix* g, ag::Tape& tape) {
  const size_t slot = slot_for(g);
  Matrix& a = stash_[slot];
  if (a.size() > 0) {
    // Complete the left-to-right accumulation: micros 0..accum-2 are already
    // summed in the stash; the final micro's complete gradient lands last.
    // Swapping the sum into the tape-registered buffer keeps the tape's
    // gradient-byte accounting exact (same element count).
    APOLLO_CHECK(a.size() == g->size());
    for (int64_t k = 0; k < a.size(); ++k) a[k] += (*g)[k];
    stash_bytes_ -= a.size() * static_cast<int64_t>(sizeof(float));
    *g = std::move(a);
    a = Matrix();
  }
  nn::Parameter& p = *(*params_)[slot];
  if (inject_nan_ && slot == 0 && g->size() > 0) (*g)[0] = std::nanf("");
  // Backward visits leaves in graph order, which is a pure function of the
  // model structure — identical on every rank, so the collectives issued
  // here stay aligned without any tagging.
  if (comm_ != nullptr) {
    const dist::Segment grad{g->data(), g->size(), owner(slot)};
    comm_->reduce_scatter_sum({&grad, 1});
  }
  if (opt_.owns_slot(static_cast<int>(slot))) {
    if (want_norm_) norms_[slot] = frobenius_norm(*g);
    update_slot(slot);
  }
  tape.release_leaf_grad(g);
  if (comm_ != nullptr) {
    const dist::Segment value{p.value.data(), p.value.size(), owner(slot)};
    comm_->all_gather({&value, 1});
  }
  stepped_[slot] = 1;
}

void UpdatePipeline::finish_fused() {
  const nn::ParamList& params = *params_;
  segs_.clear();
  for (size_t i = 0; i < params.size(); ++i) {
    if (stepped_[i]) continue;
    nn::Parameter* p = params[i];
    Matrix& a = stash_[i];
    if (a.size() > 0) {
      // Live in an earlier micro-batch but outside the final micro's graph:
      // the stash already holds the complete accumulated gradient. (DDP
      // forbids accum > 1, so no collective is needed here.)
      stash_bytes_ -= a.size() * static_cast<int64_t>(sizeof(float));
      p->grad = std::move(a);
      a = Matrix();
      if (inject_nan_ && i == 0 && p->grad.size() > 0)
        p->grad[0] = std::nanf("");
      if (want_norm_) norms_[i] = frobenius_norm(p->grad);
      if (opt_.owns_slot(static_cast<int>(i))) update_slot(i);
      p->grad = Matrix();
    } else {
      // Dead leaf (outside every micro-batch's graph): a zero-gradient
      // update keeps weight decay and per-slot step counters aligned with
      // the classic loop. The zero gradient is identical on every rank, so
      // no reduction is needed; the owner's update is still gathered.
      if (opt_.owns_slot(static_cast<int>(i))) {
        p->grad.reshape_discard(p->value.rows(), p->value.cols());
        if (inject_nan_ && i == 0 && p->grad.size() > 0) {
          p->grad[0] = std::nanf("");
          if (want_norm_) norms_[i] = frobenius_norm(p->grad);
        }
        update_slot(i);
        p->grad = Matrix();
      }
      segs_.push_back({p->value.data(), p->value.size(), owner(i)});
    }
  }
  gather(want_norm_);
  opt_.end_step(params);
}

void UpdatePipeline::gather(bool with_norms) {
  if (comm_ == nullptr) return;
  static_assert(sizeof(double) == 2 * sizeof(float));
  const size_t norm_bytes = norms_.size() * sizeof(double);
  if (with_norms) {
    // Each norm travels as the two floats of its double, copied in and out
    // with memcpy, so its bits arrive unchanged.
    norm_bits_.resize(2 * norms_.size());
    std::memcpy(norm_bits_.data(), norms_.data(), norm_bytes);
    for (size_t i = 0; i < norms_.size(); ++i)
      segs_.push_back({norm_bits_.data() + 2 * i, 2, owner(i)});
  }
  comm_->all_gather(segs_);
  if (with_norms) std::memcpy(norms_.data(), norm_bits_.data(), norm_bytes);
}

double UpdatePipeline::grad_norm() const {
  // Per-tensor norms accumulate sequentially in doubles, matching the repo's
  // reduction determinism rule. std::fma pins the accumulate to a single
  // rounding, so both drivers reduce the same norms to the same bits
  // (contraction of `acc += n * n` is otherwise at the compiler's discretion
  // per site).
  double acc = 0;
  for (const double n : norms_) acc = std::fma(n, n, acc);
  return std::sqrt(acc);
}

void UpdatePipeline::stash_param_grads() {
  // Accumulation across micro-batches sums *complete* per-micro gradients
  // left to right, exactly the association the rank-ordered all-reduce
  // produces. Accumulating inside the shared buffer instead (grad += each
  // scatter/partial as backward lands it) interleaves partial contributions
  // across micro-batches — a different float association — which would
  // break the grad_accum=W ≡ ranks=W bit-identity contract on
  // multi-contribution leaves such as the embedding.
  const nn::ParamList& params = *params_;
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix& g = params[i]->grad;
    if (g.size() == 0) continue;
    Matrix& a = stash_[i];
    if (a.size() == 0) {
      stash_bytes_ += g.size() * static_cast<int64_t>(sizeof(float));
      a = std::move(g);
      g = Matrix();
    } else {
      for (int64_t k = 0; k < a.size(); ++k) a[k] += g[k];
    }
  }
}

void UpdatePipeline::finalize_classic_grads() {
  const nn::ParamList& params = *params_;
  if (accum_ > 1) {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->grad = std::move(stash_[i]);
      stash_[i] = Matrix();
      // A leaf outside every micro-batch's graph still needs a (zero)
      // gradient for the optimizer's shape check.
      if (params[i]->grad.size() == 0)
        params[i]->grad.reshape_discard(params[i]->value.rows(),
                                        params[i]->value.cols());
    }
    stash_bytes_ = 0;
  }
  if (inject_nan_ && !params.empty() && params[0]->grad.size() > 0)
    params[0]->grad[0] = std::nanf("");
}

void UpdatePipeline::reduce_classic_grads() {
  const nn::ParamList& params = *params_;
  if (comm_ != nullptr) {
    // One reduce-scatter in slot order: from here each owned gradient is
    // the rank-ordered sum, bit-identical to the grad_accum=world run.
    segs_.clear();
    for (size_t i = 0; i < params.size(); ++i)
      segs_.push_back({params[i]->grad.data(), params[i]->grad.size(),
                       owner(i)});
    comm_->reduce_scatter_sum(segs_);
  }
  if (!want_norm_) return;
  for (size_t i = 0; i < params.size(); ++i)
    if (opt_.owns_slot(static_cast<int>(i)))
      norms_[i] = frobenius_norm(params[i]->grad);
  segs_.clear();
  gather(/*with_norms=*/true);
}

void UpdatePipeline::apply_classic() {
  const nn::ParamList& params = *params_;
  APOLLO_TRACE_SCOPE(opt_.trace_name(), "train");
  // ZeRO-1: every rank runs the order-sensitive begin/end bookkeeping over
  // all slots (keeping the optimizer's RNG stream identical), updates only
  // the slots it owns, then one all-gather copies each refreshed parameter
  // from its owner.
  opt_.begin_step(params);
  for (size_t i = 0; i < params.size(); ++i)
    if (opt_.owns_slot(static_cast<int>(i))) update_slot(i);
  opt_.end_step(params);
  segs_.clear();
  for (size_t i = 0; i < params.size(); ++i)
    segs_.push_back({params[i]->value.data(), params[i]->value.size(),
                     owner(i)});
  gather(/*with_norms=*/false);
}

}  // namespace apollo::train
