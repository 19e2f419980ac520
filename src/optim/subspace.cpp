#include "optim/subspace.h"

#include "linalg/svd.h"
#include "obs/trace.h"
#include "tensor/check.h"

namespace apollo::optim {

bool advance_slot(SubspaceSlot& s, int64_t rows, int64_t cols, ProjKind proj,
                  int update_freq, int64_t random_after, Rng& seeder) {
  APOLLO_CHECK_GE(update_freq, 1);
  if (s.local_t == 0) {
    s.side = natural_side(rows, cols);
    s.proj_seed = seeder.split();
  }
  s.refresh = s.local_t % update_freq == 0;
  ++s.local_t;
  if (s.refresh && obs::trace_enabled())
    obs::trace_instant("proj_refresh", "optim");
  // GoLore: random projections once gradient noise dominates (He et al.,
  // 2024 — they provably suffice there).
  s.kind = random_after >= 0 && s.local_t > random_after ? ProjKind::kRandom
                                                         : proj;
  // A Gaussian projector gets a new seed — new subspace directions — at
  // every refresh after the first step.
  if (s.kind == ProjKind::kRandom && s.refresh && s.local_t > 1)
    s.proj_seed = seeder.split();
  return s.refresh;
}

const Matrix& slot_projector(SubspaceSlot& s, const Matrix& g, int64_t rank,
                             Matrix& scratch) {
  APOLLO_CHECK_GE(s.local_t, 1);  // advance_slot ran for this step
  if (s.kind == ProjKind::kSvd) {
    if (s.refresh)
      s.svd_projector = s.side == ProjectionSide::kLeft
                            ? svd_left_projector(g, rank)
                            : svd_right_projector(g, rank);
    return s.svd_projector;
  }
  s.svd_projector.reshape_discard(0, 0);
  // Regenerated from the seed every step — never stored.
  scratch = gaussian_projection(
      rank, s.side == ProjectionSide::kLeft ? g.rows() : g.cols(),
      s.proj_seed);
  return scratch;
}

Matrix subspace_adam(SubspaceSlot& s, const Matrix& rg, const AdamHyper& hp,
                     MomentPrecision precision) {
  APOLLO_CHECK_GE(s.local_t, 1);
  if (s.moments.empty()) s.moments.allocate(rg.rows(), rg.cols(), precision);
  Matrix rtilde(rg.rows(), rg.cols());
  s.moments.advance(rg, hp, bias_correction(hp, s.local_t),
                    [&](int64_t lo, int64_t len, const float* dir) {
                      for (int64_t k = 0; k < len; ++k) rtilde[lo + k] = dir[k];
                    });
  return rtilde;
}

int64_t slot_bytes(const SubspaceSlot& s, bool limiter) {
  APOLLO_CHECK_GE(s.local_t, 1);  // untouched slots hold nothing
  int64_t b = s.svd_projector.size() * static_cast<int64_t>(sizeof(float)) +
              s.moments.bytes();
  b += 8;  // projection seed
  if (limiter)
    b += NormGrowthLimiter::state_floats() * static_cast<int64_t>(sizeof(float));
  return b;
}

}  // namespace apollo::optim
