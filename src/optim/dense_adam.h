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

// One AdamW update of `value` from `grad` on the moments `s`, allocated at
// `precision` on first use; `t` is the 1-based step index used for bias
// correction.
void adamw_update(AdamMoments& s, Matrix& value, const Matrix& grad,
                  const AdamHyper& hp, float lr, int64_t t,
                  MomentPrecision precision = MomentPrecision::kFp32);

class DenseAdamCore {
 public:
  explicit DenseAdamCore(const AdamHyper& hp,
                         MomentPrecision precision = MomentPrecision::kFp32)
      : hp_(hp), precision_(precision) {}

  // adamw_update on the moments keyed by `slot` — the parameter's index in
  // the owning optimizer's ParamList. Slots are sparse: untouched slots hold
  // no state.
  void update(int64_t slot, Matrix& value, const Matrix& grad,
              float lr, int64_t t);

  MomentPrecision precision() const { return precision_; }

  int64_t state_bytes() const {
    int64_t b = 0;
    for (const AdamMoments& s : states_) b += s.bytes();
    return b;
  }

  // One per-slot section without a present byte: each slot's moments, at
  // its parameter's shape, or empty when the slot holds none. At fp32 this
  // is the record layout of the pointer-keyed era, so AdamW checkpoints
  // stay byte-compatible.
  void state_fields(StateCodec& c);

 private:
  AdamHyper hp_;
  MomentPrecision precision_;
  std::vector<AdamMoments> states_;  // indexed by slot; empty ⇒ no state
};

}  // namespace apollo::optim
