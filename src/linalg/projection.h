// Seeded Gaussian random projections (the heart of APOLLO's SVD-free design)
// and helpers shared by all projected optimizers.
//
// A projection is never *stored* by APOLLO — only its 8-byte seed is kept in
// the optimizer state, and the matrix is regenerated on demand. This is why
// the optimizer-state memory in Table 1 carries only the "+2" constant for
// the APOLLO series (seed + previous gradient norm for the norm-growth
// limiter) instead of GaLore's m·r projector term.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.h"

namespace apollo {

// P ∈ R^{r×m}, entries i.i.d. N(0, 1/r), fully determined by `seed`.
// With this variance, E[‖P·x‖²] = ‖x‖² (Theorem A.1 / JL lemma), so channel
// norms survive projection up to (1 ± ε).
Matrix gaussian_projection(int64_t r, int64_t m, uint64_t seed);

// Which side of G gets compressed. The paper's convention is W ∈ R^{m×n}
// with m ≤ n: the *smaller* dimension is projected down to r and channels
// run along the larger one. Our weights may be stored either way, so the
// projector picks the side at construction from the concrete shape.
enum class ProjectionSide {
  kLeft,   // R = P·G   (compresses rows;   channels = columns)
  kRight,  // R = G·Pᵀ  (compresses cols;   channels = rows)
};

// Pick the side that compresses the smaller dimension of an m×n gradient.
ProjectionSide natural_side(int64_t rows, int64_t cols);

// Apply a projector on the chosen side: kLeft → P(r×rows)·G, kRight →
// G·P(r×cols)ᵀ.
Matrix project(const Matrix& g, const Matrix& p, ProjectionSide side);

// Back-projection used by GaLore-style optimizers to return a low-rank
// update to the full space: kLeft → Pᵀ·R, kRight → R·P.
Matrix project_back(const Matrix& r, const Matrix& p, ProjectionSide side);

// Number of channels (size of the uncompressed dimension) for a given shape
// and side.
int64_t channel_count(int64_t rows, int64_t cols, ProjectionSide side);

// Granularity of Eq. 3's scaling factors: one per channel (APOLLO) or one
// per tensor (APOLLO-Mini). Element granularity is plain AdamW.
enum class ScalingGranularity { kChannel, kTensor };

// Eq. 3's structured scaling. Scales `x` in place by the norm ratio of the
// normalized update `num` (R̃ or G̃) to the raw `den` (R or G): one factor
// sⱼ = ‖num[:,j]‖/‖den[:,j]‖ per channel — channels being the dimension
// `side` leaves uncompressed — or, at kTensor, the single factor
// ‖num‖/‖den‖. The factors are left in `s`; a zero denominator gives 0.
// APOLLO (in the subspace), structured AdamW (at full rank) and Fira's
// residual all scale through this.
void apply_structured_scaling(Matrix& x, const Matrix& num, const Matrix& den,
                              ProjectionSide side,
                              ScalingGranularity granularity,
                              std::vector<float>& s);

}  // namespace apollo
