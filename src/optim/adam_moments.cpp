#include "optim/adam_moments.h"

#include <utility>

#include "quant/bf16.h"
#include "tensor/serialize.h"

namespace apollo::optim {

void AdamMoments::allocate(int64_t rows, int64_t cols,
                           MomentPrecision precision) {
  APOLLO_CHECK(empty() && rows >= 1 && cols >= 1);
  precision_ = precision;
  rows_ = rows;
  cols_ = cols;
  if (precision == MomentPrecision::kFp32) {
    m_.reshape_discard(rows, cols);
    v_.reshape_discard(rows, cols);
  } else if (precision == MomentPrecision::kBf16) {
    m16_.assign(static_cast<size_t>(rows * cols), 0);  // lint:allow(hot-path-alloc)
    v16_.assign(static_cast<size_t>(rows * cols), 0);  // lint:allow(hot-path-alloc)
  } else {
    m8_ = BlockQuantized(rows, cols, /*signed_values=*/true, kBlock);
    v8_ = BlockQuantized(rows, cols, /*signed_values=*/false, kBlock);
  }
}

void AdamMoments::decode_block(int64_t b, int64_t len, float* m,
                               float* v) const {
  if (precision_ == MomentPrecision::kInt8) {
    m8_.load_block(b, m);
    v8_.load_block(b, v);
    return;
  }
  const size_t lo = static_cast<size_t>(b * kBlock);
  for (int64_t k = 0; k < len; ++k) {
    m[k] = bf16_to_float(m16_[lo + static_cast<size_t>(k)]);
    v[k] = bf16_to_float(v16_[lo + static_cast<size_t>(k)]);
  }
}

void AdamMoments::encode_block(int64_t b, int64_t len, const float* m,
                               const float* v) {
  if (precision_ == MomentPrecision::kInt8) {
    m8_.store_block(b, m);
    v8_.store_block(b, v);
    return;
  }
  const size_t lo = static_cast<size_t>(b * kBlock);
  for (int64_t k = 0; k < len; ++k) {
    m16_[lo + static_cast<size_t>(k)] = float_to_bf16(m[k]);
    v16_[lo + static_cast<size_t>(k)] = float_to_bf16(v[k]);
  }
}

int64_t AdamMoments::bytes() const {
  if (precision_ == MomentPrecision::kInt8) return m8_.bytes() + v8_.bytes();
  const int64_t width = precision_ == MomentPrecision::kFp32 ? 4 : 2;
  return 2 * rows_ * cols_ * width;
}

bool AdamMoments::save(std::FILE* f) const {
  APOLLO_CHECK(precision_ == MomentPrecision::kFp32);
  return write_matrix(f, m_) && write_matrix(f, v_);
}

bool AdamMoments::load(std::FILE* f, int64_t rows, int64_t cols,
                       bool may_be_empty) {
  Matrix m, v;
  if (!read_matrix(f, m) || !read_matrix(f, v) || !m.same_shape(v))
    return false;
  const bool none = may_be_empty && m.size() == 0;
  if (!none && (m.rows() != rows || m.cols() != cols)) return false;
  *this = AdamMoments();
  if (none) return true;
  rows_ = rows;
  cols_ = cols;
  m_ = std::move(m);
  v_ = std::move(v);
  return true;
}

}  // namespace apollo::optim
