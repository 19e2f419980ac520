#include "quant/quant.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tensor/check.h"
#include "tensor/simd/simd.h"

namespace apollo {

GroupQuantized GroupQuantized::quantize(const Matrix& m, int64_t group) {
  return quantize_impl(m, group, Rounding::kNearest, nullptr);
}

GroupQuantized GroupQuantized::quantize_stochastic(const Matrix& m, Rng& rng,
                                                   int64_t group) {
  return quantize_impl(m, group, Rounding::kStochastic, &rng);
}

GroupQuantized GroupQuantized::quantize_impl(const Matrix& m, int64_t group,
                                             Rounding mode, Rng* rng) {
  APOLLO_CHECK(group >= 1);
  GroupQuantized out;
  out.rows_ = m.rows();
  out.cols_ = m.cols();
  out.group_ = group;
  const int64_t n = m.size();
  const int64_t ngroups = (n + group - 1) / group;
  out.q_.resize(static_cast<size_t>(n));
  out.scales_.resize(static_cast<size_t>(ngroups));

  for (int64_t g = 0; g < ngroups; ++g) {
    const int64_t lo = g * group, hi = std::min(n, lo + group);
    float absmax = 0.f;
    for (int64_t i = lo; i < hi; ++i)
      absmax = std::max(absmax, std::fabs(m[i]));
    const float scale = absmax > 0.f ? absmax / 127.f : 1.f;
    out.scales_[static_cast<size_t>(g)] = scale;
    const float inv = 1.f / scale;
    for (int64_t i = lo; i < hi; ++i) {
      const float x = m[i] * inv;
      float qf;
      if (mode == Rounding::kNearest) {
        qf = std::nearbyint(x);
      } else {
        // Stochastic rounding: round up with probability = fractional part,
        // so E[q] = x and repeated requantization stays unbiased.
        const float fl = std::floor(x);
        qf = fl + (rng->next_float() < (x - fl) ? 1.f : 0.f);
      }
      out.q_[static_cast<size_t>(i)] =
          static_cast<int8_t>(std::clamp(qf, -127.f, 127.f));
    }
  }
  return out;
}

void GroupQuantized::requantize_stochastic(Matrix& m, float* residuals,
                                           Rng& rng) {
  APOLLO_CHECK(m.rows() == rows_ && m.cols() == cols_);
  const simd::KernelTable& kt = simd::table();
  const int64_t n = m.size();
  const int64_t ngroups = num_groups();
  // Per-thread scratch, grown once to the largest group seen: this group's
  // uniforms, the next group's, this group's per-element errors, and the
  // next group's raw draws.
  thread_local std::vector<float> scratch;
  thread_local std::vector<uint64_t> bits;
  scratch.resize(static_cast<size_t>(3 * group_));  // lint:allow(hot-path-alloc)
  bits.resize(static_cast<size_t>(group_));  // lint:allow(hot-path-alloc)
  float* u = scratch.data();
  float* u_next = u + group_;
  float* err = u_next + group_;
  // Every element gets the uniform the per-element next_float() loop gave
  // it: groups draw in index order, the first through the bulk fill.
  rng.fill_floats(u, std::min(n, group_));
  // A local copy whose address never escapes keeps the generator state in
  // registers across the stores to `bits`.
  Rng draw = rng;
  for (int64_t g = 0; g < ngroups; ++g) {
    const int64_t lo = g * group_, len = std::min(n, lo + group_) - lo;
    scales_[static_cast<size_t>(g)] = kt.requantize_group(
        m.data() + lo, q_.data() + lo, err, u, residuals[g], len);
    // The residual is a float sum in index order, one serial chain of adds.
    // Drawing the next group in the same loop lets the CPU overlap it with
    // the generator's own serial chain; the draws become floats afterwards,
    // in a loop the compiler vectorizes.
    const int64_t next_len =
        g + 1 < ngroups ? std::min(n, lo + 2 * group_) - (lo + group_) : 0;
    const int64_t both = std::min(len, next_len);
    float err_sum = 0.f;
    for (int64_t i = 0; i < both; ++i) {
      err_sum += err[i];
      bits[static_cast<size_t>(i)] = draw.next_u64();
    }
    for (int64_t i = both; i < len; ++i) err_sum += err[i];
    for (int64_t i = both; i < next_len; ++i)
      bits[static_cast<size_t>(i)] = draw.next_u64();
    for (int64_t i = 0; i < next_len; ++i)
      u_next[i] = Rng::uniform_float(bits[static_cast<size_t>(i)]);
    residuals[g] = err_sum / static_cast<float>(len);
    std::swap(u, u_next);
  }
  rng = draw;
}

GroupQuantized GroupQuantized::from_payload(int64_t rows, int64_t cols,
                                            int64_t group,
                                            std::vector<int8_t> codes,
                                            std::vector<float> scales) {
  APOLLO_CHECK(group >= 1);
  APOLLO_CHECK(static_cast<int64_t>(codes.size()) == rows * cols);
  APOLLO_CHECK(static_cast<int64_t>(scales.size()) ==
               (rows * cols + group - 1) / group);
  GroupQuantized out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.group_ = group;
  out.q_ = std::move(codes);
  out.scales_ = std::move(scales);
  return out;
}

Matrix GroupQuantized::dequantize() const {
  Matrix m(rows_, cols_);
  const int64_t n = m.size();
  for (int64_t i = 0; i < n; ++i)
    m[i] = static_cast<float>(q_[static_cast<size_t>(i)]) *
           scales_[static_cast<size_t>(i / group_)];
  return m;
}

BlockQuantized::BlockQuantized(int64_t rows, int64_t cols, bool signed_values,
                               int64_t block)
    : rows_(rows), cols_(cols), block_(block), signed_(signed_values) {
  const int64_t n = rows * cols;
  q_.assign(static_cast<size_t>(n), 0);
  scales_.assign(static_cast<size_t>((n + block - 1) / block), 0.f);
}

void BlockQuantized::store(const Matrix& m) {
  APOLLO_CHECK(m.rows() == rows_ && m.cols() == cols_);
  const int64_t n = m.size();
  const int64_t nblocks = static_cast<int64_t>(scales_.size());
  for (int64_t b = 0; b < nblocks; ++b) {
    const int64_t lo = b * block_, hi = std::min(n, lo + block_);
    if (signed_) {
      float mx = 0.f;
      for (int64_t i = lo; i < hi; ++i) mx = std::max(mx, std::fabs(m[i]));
      const float scale = mx > 0.f ? mx / 127.f : 1.f;
      scales_[static_cast<size_t>(b)] = scale;
      const float inv = 1.f / scale;
      for (int64_t i = lo; i < hi; ++i)
        q_[static_cast<size_t>(i)] = static_cast<int8_t>(
            std::clamp(std::nearbyint(m[i] * inv), -127.f, 127.f));
    } else {
      // Non-negative moments (Adam's V) use a square-root code: the stored
      // 8-bit value quantizes √x, so dequantized spacing is quadratic and
      // small second-moment entries keep far better relative precision —
      // the same motivation as bitsandbytes' dynamic 8-bit code.
      float mx = 0.f;
      for (int64_t i = lo; i < hi; ++i)
        mx = std::max(mx, std::sqrt(std::max(0.f, m[i])));
      const float scale = mx > 0.f ? mx / 255.f : 1.f;
      scales_[static_cast<size_t>(b)] = scale;
      const float inv = 1.f / scale;
      for (int64_t i = lo; i < hi; ++i) {
        const float root = std::sqrt(std::max(0.f, m[i]));
        const float qf =
            std::clamp(std::nearbyint(root * inv), 0.f, 255.f);
        // Stored with an offset of −128 to fit int8.
        q_[static_cast<size_t>(i)] =
            static_cast<int8_t>(static_cast<int>(qf) - 128);
      }
    }
  }
}

void BlockQuantized::load_block(int64_t b, float* out) const {
  APOLLO_CHECK(b >= 0 && b < num_blocks());
  const int64_t lo = b * block_;
  const int64_t len = block_len(b);
  const float scale = scales_[static_cast<size_t>(b)];
  for (int64_t k = 0; k < len; ++k) {
    if (signed_) {
      out[k] = static_cast<float>(q_[static_cast<size_t>(lo + k)]) * scale;
    } else {
      const float root =
          static_cast<float>(
              static_cast<int>(q_[static_cast<size_t>(lo + k)]) + 128) *
          scale;
      out[k] = root * root;  // square-root code (see store())
    }
  }
}

void BlockQuantized::store_block(int64_t b, const float* in) {
  APOLLO_CHECK(b >= 0 && b < num_blocks());
  const int64_t lo = b * block_;
  const int64_t len = block_len(b);
  if (signed_) {
    float mx = 0.f;
    for (int64_t k = 0; k < len; ++k) mx = std::max(mx, std::fabs(in[k]));
    const float scale = mx > 0.f ? mx / 127.f : 1.f;
    scales_[static_cast<size_t>(b)] = scale;
    const float inv = 1.f / scale;
    for (int64_t k = 0; k < len; ++k)
      q_[static_cast<size_t>(lo + k)] = static_cast<int8_t>(
          std::clamp(std::nearbyint(in[k] * inv), -127.f, 127.f));
  } else {
    float mx = 0.f;
    for (int64_t k = 0; k < len; ++k)
      mx = std::max(mx, std::sqrt(std::max(0.f, in[k])));
    const float scale = mx > 0.f ? mx / 255.f : 1.f;
    scales_[static_cast<size_t>(b)] = scale;
    const float inv = 1.f / scale;
    for (int64_t k = 0; k < len; ++k) {
      const float root = std::sqrt(std::max(0.f, in[k]));
      const float qf = std::clamp(std::nearbyint(root * inv), 0.f, 255.f);
      q_[static_cast<size_t>(lo + k)] =
          static_cast<int8_t>(static_cast<int>(qf) - 128);
    }
  }
}

Matrix BlockQuantized::load() const {
  Matrix m(rows_, cols_);
  const int64_t n = m.size();
  for (int64_t i = 0; i < n; ++i) {
    const float scale = scales_[static_cast<size_t>(i / block_)];
    if (signed_) {
      m[i] = static_cast<float>(q_[static_cast<size_t>(i)]) * scale;
    } else {
      const float root =
          static_cast<float>(static_cast<int>(q_[static_cast<size_t>(i)]) +
                             128) *
          scale;
      m[i] = root * root;  // square-root code (see store())
    }
  }
  return m;
}

}  // namespace apollo
