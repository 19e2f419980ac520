// The subspace-AdamW core that the GaLore family (optim/galore.h) and APOLLO
// (core/apollo.h) share. Both project each 2-D gradient into a rank-r
// subspace (R = P·G or G·Pᵀ) and run AdamW on R; they part ways only in how
// the normalized R̃ = M̂/(√V̂+ε) reaches the weight — GaLore back-projects it,
// APOLLO turns it into Eq. 3's scaling of the raw gradient.
//
// Order-independence contract: advance_slot() makes every seeder draw and
// refresh decision and is called from begin_step in slot order; the other
// two functions touch only their own slot, so step_param may arrive in any
// order (the fused backward path delivers parameters in completion order).
#pragma once

#include <cstdint>

#include "linalg/projection.h"
#include "optim/adam_moments.h"
#include "optim/norm_limiter.h"
#include "optim/optimizer.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace apollo::optim {

enum class ProjKind { kSvd, kRandom };

// Per-weight state of a projected optimizer.
struct SubspaceSlot {
  ProjectionSide side = ProjectionSide::kLeft;
  ProjKind kind = ProjKind::kSvd;  // projector used at the current step
  uint64_t proj_seed = 0;  // Gaussian projectors are regenerated from this
  Matrix svd_projector;    // stored only for SVD projectors
  AdamMoments moments;     // subspace moments
  int64_t local_t = 0;     // steps taken by this slot
  NormGrowthLimiter limiter;
  bool refresh = false;  // decided by advance_slot for the current step
};

// begin_step's slot-order work for one projected rows×cols weight. On first
// touch it picks the side and draws the seed; then it decides whether this
// step refreshes the projector (every `update_freq` slot steps), picks the
// step's projector kind — `proj`, or kRandom once the slot is past step
// `random_after` when that is ≥ 0 (GoLore) — and re-draws a Gaussian
// projector's seed on refresh. Returns the refresh decision.
bool advance_slot(SubspaceSlot& s, int64_t rows, int64_t cols, ProjKind proj,
                  int update_freq, int64_t random_after, Rng& seeder);

// This step's projector for gradient `g`: the stored SVD projector,
// recomputed on refresh, or the Gaussian one regenerated from the seed into
// `scratch` (dropping any SVD projector left from before a GoLore switch).
const Matrix& slot_projector(SubspaceSlot& s, const Matrix& g, int64_t rank,
                             Matrix& scratch);

// AdamW in the subspace: allocates the moments at `precision` on first use,
// advances them by the projected gradient `rg` with bias correction at
// s.local_t, and returns R̃ = M̂/(√V̂+ε).
Matrix subspace_adam(SubspaceSlot& s, const Matrix& rg, const AdamHyper& hp,
                     MomentPrecision precision = MomentPrecision::kFp32);

// Persistent bytes of one touched slot: the SVD projector, the moments, the
// 8-byte seed, and the limiter's tracked norm when `limiter`.
int64_t slot_bytes(const SubspaceSlot& s, bool limiter);

// One slot's state-codec record (optim/state_codec.h): a present byte (the
// slot has taken a step), u8 side, u64 projection seed, i64 step count, f64
// limiter norm, the projector and the moments. The slot's weight `w` must
// be `projected`; the projector is r×(rows or cols of w, by side) when the
// slot's last step used an SVD one (proj and random_after as advance_slot
// takes them, so a GoLore slot past its switch holds none) and 0×0
// otherwise; the moments are r×cols (left) or rows×r (right) at
// `precision`.
void subspace_fields(StateCodec& c, SubspaceSlot& s, const Matrix& w,
                     bool projected, int64_t rank, ProjKind proj,
                     int64_t random_after, MomentPrecision precision);

}  // namespace apollo::optim
