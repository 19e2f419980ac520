// A reusable full-rank AdamW core. Besides backing the AdamW baseline (at
// every moment precision) it is embedded by every projected optimizer
// (GaLore/Fira/APOLLO/…) to handle the parameters that are *not*
// low-rank-projected (1-D RMSNorm gains), matching how the reference
// implementations treat non-2D tensors.
#pragma once

#include <vector>

#include "nn/parameter.h"
#include "optim/adam_moments.h"
#include "optim/optimizer.h"
#include "tensor/matrix.h"

namespace apollo::optim {

class DenseAdamCore {
 public:
  explicit DenseAdamCore(const AdamHyper& hp,
                         MomentPrecision precision = MomentPrecision::kFp32)
      : hp_(hp), precision_(precision) {}

  // One AdamW update of `value` from `grad`; `t` is the 1-based step index
  // used for bias correction. State is keyed by `slot` — the parameter's
  // index in the owning optimizer's ParamList (owners with several moment
  // sets per parameter map them to disjoint slot ranges). Slots are sparse:
  // untouched slots hold no state.
  void update(int64_t slot, Matrix& value, const Matrix& grad,
              float lr, int64_t t);

  MomentPrecision precision() const { return precision_; }

  int64_t state_bytes() const {
    int64_t b = 0;
    for (const AdamMoments& s : states_) b += s.bytes();
    return b;
  }

  void reset() { states_.clear(); }
  // Drop the moments of one slot (ReLoRA's optimizer-state reset on merge).
  void reset_slot(int64_t slot) {
    if (slot < static_cast<int64_t>(states_.size()))
      states_[static_cast<size_t>(slot)] = AdamMoments();
  }

  // Serialize the fp32 moments of slots [0, n_slots) in order; slots without
  // state are written as empty matrices. Used by the owning optimizer's
  // save_state; the record layout matches the old pointer-keyed format, so
  // existing checkpoints stay byte-compatible.
  bool save(std::FILE* f, int64_t n_slots) const;
  // Reads what save wrote for the slots of `params`, keeping state already
  // merged from other shards; of the incoming records it keeps only the
  // slots with `world <= 1 || slot % world == rank` (this instance's ZeRO-1
  // shard) so resident moments stay at 1/R after a full merge pass. Every
  // record must be empty or have its parameter's shape, whichever shard
  // keeps it, so all ranks reach the same verdict. A full load is reset()
  // then load_merge.
  bool load_merge(std::FILE* f, const nn::ParamList& params, int rank,
                  int world);

 private:
  AdamHyper hp_;
  MomentPrecision precision_;
  std::vector<AdamMoments> states_;  // indexed by slot; empty ⇒ no state
};

}  // namespace apollo::optim
