// Dense row-major float32 matrix — the single tensor type of the library.
//
// Everything in this reproduction (gradients, optimizer states, activations)
// is matrix-shaped, matching the paper's formulation where each trainable
// weight is W ∈ R^{m×n}. Higher-rank activations (batch × seq × dim) are
// stored flattened as (batch·seq) × dim and re-interpreted by the ops that
// need sequence structure (attention).
//
// Storage is recycled. A training step rebuilds its tape, so every step
// allocates and frees the same set of activation, gradient and temporary
// shapes; released storage therefore goes to a bounded per-thread cache
// keyed by exact element count instead of back to malloc, and the next
// Matrix of that size on that thread reuses it. Matrix(r, c) and
// reshape_discard still hand out zero-filled storage, a failed allocation
// throws std::bad_alloc, and a moved-from Matrix is 0×0. Cached storage is
// ASan-poisoned, so a read through a stale data() pointer is still reported.
// DESIGN.md "Tensor storage" has the cap and the threading rules.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>  // unused here, but many includers rely on it

#include "tensor/check.h"
#include "tensor/rng.h"

namespace apollo {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int64_t rows, int64_t cols);
  Matrix(const Matrix& o);
  Matrix(Matrix&& o) noexcept
      : rows_(std::exchange(o.rows_, 0)),
        cols_(std::exchange(o.cols_, 0)),
        data_(std::exchange(o.data_, nullptr)) {}
  Matrix& operator=(const Matrix& o);
  Matrix& operator=(Matrix&& o) noexcept;
  ~Matrix() { release(data_, size()); }

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }

  float* data() { return data_; }
  const float* data() const { return data_; }

  float& at(int64_t r, int64_t c) {
    APOLLO_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[r * cols_ + c];
  }
  float at(int64_t r, int64_t c) const {
    APOLLO_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[r * cols_ + c];
  }
  float& operator[](int64_t i) { return data_[i]; }
  float operator[](int64_t i) const { return data_[i]; }

  float* row(int64_t r) { return data() + r * cols_; }
  const float* row(int64_t r) const { return data() + r * cols_; }

  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  void fill(float v) { std::fill(data_, data_ + size(), v); }
  void zero() { fill(0.f); }

  // Resize, discarding contents (zero-initialized). Explicitly an
  // allocate-and-discard API: hot-path callers use it for one-time lazy
  // state init (a no-op once the shape is stable).
  void reshape_discard(int64_t rows, int64_t cols);

  // In-place element access helpers used by samplers.
  void fill_gaussian(Rng& rng, float mean = 0.f, float stddev = 1.f);

  Matrix transposed() const;

  // Deep equality (exact element comparison) — used by determinism tests.
  bool operator==(const Matrix& o) const {
    return same_shape(o) && std::equal(data_, data_ + size(), o.data_);
  }

 private:
  // Storage of n > 0 floats from the calling thread's cache, or from malloc
  // on a miss; zero-filled when `zeroed`. release() takes storage back
  // (p may be null when n is 0).
  static float* acquire(int64_t n, bool zeroed);
  static void release(float* p, int64_t n) noexcept;

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  float* data_ = nullptr;
};

// Gives the calling thread's cached Matrix storage back to malloc. Call it
// before a large allocation that is not a Matrix, so that allocation can
// reuse those pages instead of growing the process (train/ckpt_io.cpp does,
// before serializing optimizer state).
void trim_matrix_storage_cache();

}  // namespace apollo
