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

bool AdamMoments::write_payload(std::FILE* f, int k) const {
  const size_t n = static_cast<size_t>(rows_ * cols_);
  if (precision_ == MomentPrecision::kFp32)
    return write_bytes(f, (k == 0 ? m_ : v_).data(), n * sizeof(float));
  if (precision_ == MomentPrecision::kBf16)
    return write_bytes(f, (k == 0 ? m16_ : v16_).data(), n * sizeof(uint16_t));
  const BlockQuantized& q = k == 0 ? m8_ : v8_;
  const int64_t blocks = q.num_blocks();
  return write_bytes(f, q.codes(), n) && write_pod(f, blocks) &&
         write_bytes(f, q.scales(), static_cast<size_t>(blocks) * sizeof(float));
}

bool AdamMoments::read_payload(std::FILE* f, int k) {
  const size_t n = static_cast<size_t>(rows_ * cols_);
  if (precision_ == MomentPrecision::kFp32)
    return read_bytes(f, (k == 0 ? m_ : v_).data(), n * sizeof(float));
  if (precision_ == MomentPrecision::kBf16)
    return read_bytes(f, (k == 0 ? m16_ : v16_).data(), n * sizeof(uint16_t));
  BlockQuantized& q = k == 0 ? m8_ : v8_;
  int64_t blocks = 0;
  return read_bytes(f, q.codes(), n) && read_pod(f, blocks) &&
         blocks == q.num_blocks() &&
         read_bytes(f, q.scales(), static_cast<size_t>(blocks) * sizeof(float));
}

bool AdamMoments::save(std::FILE* f) const {
  for (int k = 0; k < 2; ++k)
    if (!write_pod(f, rows_) || !write_pod(f, cols_) ||
        (!empty() && !write_payload(f, k)))
      return false;
  return true;
}

// Parses untrusted bytes: a record that does not fit fails the load instead
// of aborting. Storage is allocated at the expected shape, never at one the
// bytes name.
bool AdamMoments::load(std::FILE* f, int64_t rows, int64_t cols,
                       MomentPrecision precision, bool may_be_empty) {
  int64_t r = 0, c = 0;
  if (!read_pod(f, r) || !read_pod(f, c)) return false;
  if (r == 0 && c == 0 && may_be_empty) {  // no state when saved
    *this = AdamMoments();
    return read_pod(f, r) && read_pod(f, c) && r == 0 && c == 0;
  }
  if (r != rows || c != cols || rows < 1 || cols < 1) return false;
  AdamMoments in;
  in.allocate(rows, cols, precision);
  if (!in.read_payload(f, 0) || !read_pod(f, r) || !read_pod(f, c) ||
      r != rows || c != cols || !in.read_payload(f, 1))
    return false;
  *this = std::move(in);
  return true;
}

}  // namespace apollo::optim
