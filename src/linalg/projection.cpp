#include "linalg/projection.h"

#include <cmath>

#include "tensor/check.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace apollo {

// Projector generation is sequential by construction (the Rng stream must
// replay bit-exactly from the stored 8-byte seed); project/project_back
// below inherit multi-threading — and the runtime-dispatched SIMD GEMM
// (tensor/simd/simd.h) — from the matmul kernels.
Matrix gaussian_projection(int64_t r, int64_t m, uint64_t seed) {
  APOLLO_CHECK(r >= 1 && m >= 1);
  Matrix p(r, m);
  Rng rng(seed);
  const float stddev = 1.f / std::sqrt(static_cast<float>(r));
  p.fill_gaussian(rng, 0.f, stddev);
  return p;
}

ProjectionSide natural_side(int64_t rows, int64_t cols) {
  return rows <= cols ? ProjectionSide::kLeft : ProjectionSide::kRight;
}

Matrix project(const Matrix& g, const Matrix& p, ProjectionSide side) {
  if (side == ProjectionSide::kLeft) {
    APOLLO_CHECK(p.cols() == g.rows());
    return matmul(p, g);  // r×n
  }
  APOLLO_CHECK(p.cols() == g.cols());
  return matmul_bt(g, p);  // m×r
}

Matrix project_back(const Matrix& r, const Matrix& p, ProjectionSide side) {
  if (side == ProjectionSide::kLeft) {
    APOLLO_CHECK(r.rows() == p.rows());
    return matmul_at(p, r);  // m×n
  }
  APOLLO_CHECK(r.cols() == p.rows());
  return matmul(r, p);  // m×n
}

int64_t channel_count(int64_t rows, int64_t cols, ProjectionSide side) {
  return side == ProjectionSide::kLeft ? cols : rows;
}

void apply_structured_scaling(Matrix& x, const Matrix& num, const Matrix& den,
                              ProjectionSide side,
                              ScalingGranularity granularity,
                              std::vector<float>& s) {
  APOLLO_CHECK_SAME_SHAPE(num, den);
  if (granularity == ScalingGranularity::kTensor) {
    const double n = frobenius_norm(num);
    const double d = frobenius_norm(den);
    const float f = d > 1e-30 ? static_cast<float>(n / d) : 0.f;
    // One-element record; its capacity persists across steps.
    s.assign(1, f);  // lint:allow(hot-path-alloc)
    scale_inplace(x, f);
    return;
  }
  const bool left = side == ProjectionSide::kLeft;
  const std::vector<float> n = left ? col_norms(num) : row_norms(num);
  const std::vector<float> d = left ? col_norms(den) : row_norms(den);
  // Sized once per weight (the shape is fixed); a no-op after that.
  s.resize(n.size());  // lint:allow(hot-path-alloc)
  for (size_t j = 0; j < s.size(); ++j)
    s[j] = d[j] > 1e-30f ? n[j] / d[j] : 0.f;
  if (left)
    scale_cols_inplace(x, s);
  else
    scale_rows_inplace(x, s);
}

}  // namespace apollo
