// The one optimizer-state codec. Optimizer::save_state, load_state and
// merge_state run it over the fields an optimizer lists in its state_fields
// hook, so one list both writes the state and reads it back:
//
//   i64 t | the hook's fields, in the order it lists them
//
// A hook lists header fields (its Rng streams), then per-slot sections: one
// record per parameter slot, in ParamList order. A record may open with a
// present byte (0: the slot holds no state, and nothing else follows), then
// holds scalars, matrices and Adam moments, each given with the shape its
// slot would allocate. A record without a present byte holds only matrices
// and moments that are empty when the slot has no state. Reading checks
// every field against its shape, and every check() the hook makes, before
// adopting it, so crafted bytes fail the load instead of sizing a later
// step's reads.
//
// ZeRO-1 (Optimizer::set_shard) is applied here and nowhere else. A rank
// writes the records of the slots it owns and a fresh slot's record for the
// others, so a shard set holds each record once. Merging a shard keeps the
// scalars of every record — the per-slot metadata every rank's begin_step
// needs — and matrices and moments only for the slots this rank owns under
// its current shard configuration, unless a matrix is Keep::kEveryRank
// (state every rank allocates). A full load is a merge into cleared state.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

#include "nn/parameter.h"
#include "optim/adam_moments.h"
#include "optim/optimizer.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"

namespace apollo::optim {

class StateCodec {
 public:
  enum class Keep { kOwner, kEveryRank };

  StateCodec(std::FILE* f, CodecMode mode, const nn::ParamList& params,
             int rank, int world)
      : f_(f), mode_(mode), params_(params), rank_(rank), world_(world) {}

  bool saving() const { return mode_ == CodecMode::kSave; }
  bool ok() const { return ok_; }

  // Fails a read unless `cond` holds (a value the hook just read is out of
  // range); saving ignores it.
  void check(bool cond) { ok_ = ok_ && (saving() || cond); }

  template <class T>
  void scalar(T& v) {
    if (ok_) ok_ = saving() ? write_pod(f_, v) : read_pod(f_, v);
  }
  void rng(Rng& r);

  // One record(slot_state, param) per slot. Reading sizes `states` to the
  // slot count first (cleared by a full load); saving hands a non-owned slot
  // a fresh Slot, so only its owner writes its state.
  template <class Slot, class Fn>
  void slots(std::vector<Slot>& states, Fn&& record) {
    const size_t n = params_.size();
    if (mode_ == CodecMode::kLoad) states.clear();
    if (!saving() && states.size() < n) states.resize(n);
    for (size_t i = 0; i < n && ok_; ++i) {
      owned_ = world_ <= 1 ||
               static_cast<int>(i % static_cast<size_t>(world_)) == rank_;
      if (!saving() || (owned_ && i < states.size())) {
        record(states[i], *params_[i]);
        continue;
      }
      Slot fresh = Slot();
      record(fresh, *params_[i]);
    }
    owned_ = true;
  }

  // The record's present byte: writes `has`, or returns what was written.
  bool present(bool has);
  void matrix(Matrix& m, int64_t rows, int64_t cols, Keep keep = Keep::kOwner);
  // An empty record (allowed when `may_be_empty`) leaves `m` as it is.
  void moments(AdamMoments& m, int64_t rows, int64_t cols,
               MomentPrecision precision, bool may_be_empty = false);

 private:
  std::FILE* f_;
  CodecMode mode_;
  const nn::ParamList& params_;
  int rank_, world_;
  bool owned_ = true;  // the current record's slot is this rank's
  bool ok_ = true;
};

}  // namespace apollo::optim
