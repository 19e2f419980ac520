#include "quant/quant.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/check.h"
#include "tensor/simd/simd.h"

namespace apollo {
namespace {

// The one symmetric INT8 code: scale = absmax/127 (1 for an all-zero run;
// NaN elements are skipped), code = clamp(round(x/scale), ±127), and NaN
// gets code 0, as requantize_group gives it. `round` maps x/scale to an
// integral float: nearbyint, or a stochastic rounding.
template <class Round>
float encode_symmetric(const float* x, int64_t n, int8_t* q, Round round) {
  float absmax = 0.f;
  for (int64_t i = 0; i < n; ++i) absmax = std::max(absmax, std::fabs(x[i]));
  const float scale = absmax > 0.f ? absmax / 127.f : 1.f;
  const float inv = 1.f / scale;
  for (int64_t i = 0; i < n; ++i) {
    const float qf = std::clamp(round(x[i] * inv), -127.f, 127.f);
    q[i] = std::isnan(qf) ? int8_t{0} : static_cast<int8_t>(qf);
  }
  return scale;
}

void decode_symmetric(const int8_t* q, float scale, int64_t n, float* out) {
  for (int64_t i = 0; i < n; ++i) out[i] = static_cast<float>(q[i]) * scale;
}

constexpr auto kRoundNearest = [](float x) { return std::nearbyint(x); };

template <class Round>
GroupQuantized quantize_groups(const Matrix& m, int64_t group, Round round) {
  APOLLO_CHECK(group >= 1);
  const int64_t n = m.size();
  std::vector<int8_t> codes(static_cast<size_t>(n));
  std::vector<float> scales(static_cast<size_t>((n + group - 1) / group));
  for (size_t g = 0; g < scales.size(); ++g) {
    const int64_t lo = static_cast<int64_t>(g) * group;
    scales[g] = encode_symmetric(m.data() + lo, std::min(group, n - lo),
                                 codes.data() + lo, round);
  }
  return GroupQuantized::from_payload(m.rows(), m.cols(), group,
                                      std::move(codes), std::move(scales));
}

}  // namespace

GroupQuantized GroupQuantized::quantize(const Matrix& m, int64_t group) {
  return quantize_groups(m, group, kRoundNearest);
}

GroupQuantized GroupQuantized::quantize_stochastic(const Matrix& m, Rng& rng,
                                                   int64_t group) {
  // Round up with probability equal to the fractional part, so E[q] = x and
  // repeated requantization stays unbiased.
  return quantize_groups(m, group, [&rng](float x) {
    const float fl = std::floor(x);
    return fl + (rng.next_float() < (x - fl) ? 1.f : 0.f);
  });
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
  for (int64_t g = 0; g < num_groups(); ++g) {
    const int64_t lo = g * group_;
    decode_symmetric(q_.data() + lo, scales_[static_cast<size_t>(g)],
                     std::min(n, lo + group_) - lo, m.data() + lo);
  }
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
  for (int64_t b = 0; b < num_blocks(); ++b)
    store_block(b, m.data() + b * block_);
}

Matrix BlockQuantized::load() const {
  Matrix m(rows_, cols_);
  for (int64_t b = 0; b < num_blocks(); ++b)
    load_block(b, m.data() + b * block_);
  return m;
}

void BlockQuantized::load_block(int64_t b, float* out) const {
  APOLLO_CHECK(b >= 0 && b < num_blocks());
  const int8_t* q = q_.data() + b * block_;
  const int64_t len = block_len(b);
  const float scale = scales_[static_cast<size_t>(b)];
  if (signed_) {
    decode_symmetric(q, scale, len, out);
    return;
  }
  for (int64_t k = 0; k < len; ++k) {
    const float root = static_cast<float>(static_cast<int>(q[k]) + 128) * scale;
    out[k] = root * root;  // square-root code (see store_block())
  }
}

void BlockQuantized::store_block(int64_t b, const float* in) {
  APOLLO_CHECK(b >= 0 && b < num_blocks());
  int8_t* q = q_.data() + b * block_;
  const int64_t len = block_len(b);
  float& scale = scales_[static_cast<size_t>(b)];
  if (signed_) {
    scale = encode_symmetric(in, len, q, kRoundNearest);
    return;
  }
  // Non-negative moments (Adam's V) use a square-root code: the stored
  // 8-bit value quantizes √x, so dequantized spacing is quadratic and small
  // second-moment entries keep far better relative precision — the same
  // motivation as bitsandbytes' dynamic 8-bit code. std::max(0.f, NaN) is 0,
  // so NaN gets the code of 0.
  float mx = 0.f;
  for (int64_t k = 0; k < len; ++k)
    mx = std::max(mx, std::sqrt(std::max(0.f, in[k])));
  scale = mx > 0.f ? mx / 255.f : 1.f;
  const float inv = 1.f / scale;
  for (int64_t k = 0; k < len; ++k) {
    const float root = std::sqrt(std::max(0.f, in[k]));
    const float qf = std::clamp(std::nearbyint(root * inv), 0.f, 255.f);
    // Stored with an offset of −128 to fit int8.
    q[k] = static_cast<int8_t>(static_cast<int>(qf) - 128);
  }
}

}  // namespace apollo
