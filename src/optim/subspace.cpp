#include "optim/subspace.h"

#include "linalg/svd.h"
#include "obs/trace.h"
#include "optim/state_codec.h"
#include "tensor/check.h"

namespace apollo::optim {

namespace {

// The projector kind of a slot's step number `local_t`. GoLore: random
// projections once gradient noise dominates (He et al., 2024 — they provably
// suffice there).
ProjKind kind_at(int64_t local_t, ProjKind proj, int64_t random_after) {
  return random_after >= 0 && local_t > random_after ? ProjKind::kRandom
                                                     : proj;
}

}  // namespace

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
  s.kind = kind_at(s.local_t, proj, random_after);
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

// Parses untrusted bytes through the codec, which checks every field; a
// record `w` could not hold fails the read.
// lint:allow(check-shape-preconditions)
void subspace_fields(StateCodec& c, SubspaceSlot& s, const Matrix& w,
                     bool projected, int64_t rank, ProjKind proj,
                     int64_t random_after, MomentPrecision precision) {
  if (!c.present(s.local_t > 0)) return;
  uint8_t side = s.side == ProjectionSide::kLeft ? 0 : 1;
  double norm = s.limiter.tracked_norm();
  c.scalar(side);
  c.scalar(s.proj_seed);
  c.scalar(s.local_t);
  c.scalar(norm);
  c.check(projected && side <= 1 && s.local_t >= 1);
  if (!c.ok()) return;
  s.side = side == 0 ? ProjectionSide::kLeft : ProjectionSide::kRight;
  s.limiter.set_tracked_norm(norm);
  const bool left = side == 0;
  const bool svd = kind_at(s.local_t, proj, random_after) == ProjKind::kSvd;
  c.matrix(s.svd_projector, svd ? rank : 0,
           svd ? (left ? w.rows() : w.cols()) : 0);
  c.moments(s.moments, left ? rank : w.rows(), left ? w.cols() : rank,
            precision);
}

}  // namespace apollo::optim
