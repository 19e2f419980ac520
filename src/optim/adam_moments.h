// The one Adam moment store: one tensor's M and V at one rung of the
// precision ladder — fp32 (Table 1's 2mn), bf16 with round to nearest even
// (the paper's memory estimates), or int8 in BlockQuantized's signed code
// for M and square-root code for V (Table 3's 8-bit baselines). Compute is
// fp32 at every rung: advance() decodes one 128-element block into stack
// buffers, advances it through adam_direction, re-encodes it and hands the
// block's direction m̂/(√v̂+ε) to the caller. Blocks are independent (the
// int8 scale is per block), so they run on the deterministic pool and give
// the same bits at any thread count. DenseAdamCore, SubspaceSlot and
// StructuredAdamW keep their moments here; only the fp32 rung serializes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "core/threadpool.h"
#include "optim/optimizer.h"
#include "quant/quant.h"
#include "tensor/check.h"
#include "tensor/matrix.h"

namespace apollo::optim {

enum class MomentPrecision { kFp32, kBf16, kInt8 };

class AdamMoments {
 public:
  bool empty() const { return rows_ == 0; }
  // Zero moments for a rows×cols tensor, at its first step.
  void allocate(int64_t rows, int64_t cols, MomentPrecision precision);

  // Advances M and V by `g` and calls fn(lo, len, dir) per block, dir[k]
  // being element lo + k's direction. Blocks run on pool threads, so fn may
  // write only elements [lo, lo + len).
  template <class Fn>
  void advance(const Matrix& g, const AdamHyper& hp, const BiasCorrection& bc,
               Fn&& fn) {
    APOLLO_CHECK(g.rows() == rows_ && g.cols() == cols_);
    const int64_t n = g.size();
    const bool fp32 = precision_ == MomentPrecision::kFp32;
    core::parallel_for(
        (n + kBlock - 1) / kBlock,
        [&](int64_t b0, int64_t b1) {
          float mbuf[kBlock], vbuf[kBlock], dir[kBlock];
          for (int64_t b = b0; b < b1; ++b) {
            const int64_t lo = b * kBlock, len = std::min(kBlock, n - lo);
            float* m = fp32 ? m_.data() + lo : mbuf;
            float* v = fp32 ? v_.data() + lo : vbuf;
            if (!fp32) decode_block(b, len, m, v);
            for (int64_t k = 0; k < len; ++k)
              dir[k] = adam_direction(m[k], v[k], g[lo + k], hp, bc);
            if (!fp32) encode_block(b, len, m, v);
            fn(lo, len, static_cast<const float*>(dir));
          }
        },
        // Ranges under 2·64 blocks (16 Ki elements) stay on this thread.
        /*grain=*/64);
  }

  int64_t bytes() const;

  // fp32 only: M then V as matrices (0×0 when empty).
  bool save(std::FILE* f) const;
  // Adopts one record save wrote. False unless both matrices have the shape
  // a rows×cols tensor's moments are allocated at, or, if `may_be_empty`,
  // are both empty (no state when saved).
  bool load(std::FILE* f, int64_t rows, int64_t cols, bool may_be_empty);

 private:
  static constexpr int64_t kBlock = 128;

  // bf16 and int8 rungs: block b of M and V to fp32 and back.
  void decode_block(int64_t b, int64_t len, float* m, float* v) const;
  void encode_block(int64_t b, int64_t len, const float* m, const float* v);

  MomentPrecision precision_ = MomentPrecision::kFp32;
  int64_t rows_ = 0, cols_ = 0;
  Matrix m_, v_;                     // kFp32
  std::vector<uint16_t> m16_, v16_;  // kBf16
  BlockQuantized m8_, v8_;           // kInt8
};

}  // namespace apollo::optim
