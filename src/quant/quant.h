// INT8 quantization substrates.
//
// Two distinct users in the paper:
//   1. Q-GaLore-style *weight* quantization (group-wise INT8, group size 128,
//      stochastic rounding on re-quantization after an update) — used by the
//      Q-APOLLO / Q-APOLLO-Mini rows of Table 6 and the 12 GB claim of
//      Fig. 1 (middle).
//   2. bitsandbytes-style *optimizer state* quantization (block-wise dynamic
//      8-bit with per-block absmax scales) — used by the 8-bit Adam and
//      8-bit GaLore baselines of Table 3.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace apollo {

// Group-wise symmetric INT8 container. Groups are `group` consecutive
// elements in row-major order; each group carries one float scale
// (absmax/127).
class GroupQuantized {
 public:
  GroupQuantized() = default;

  // Round-to-nearest quantization.
  static GroupQuantized quantize(const Matrix& m, int64_t group = 128);
  // Stochastic-rounding quantization (Q-GaLore's trick to keep the expected
  // weight unbiased across repeated quantize→update→quantize cycles).
  static GroupQuantized quantize_stochastic(const Matrix& m, Rng& rng,
                                            int64_t group = 128);

  Matrix dequantize() const;

  // In-place streaming requantization for the Q-APOLLO update path: `m` holds
  // the freshly updated fp32 weights for this container's shape, `residuals`
  // points at `num_groups()` per-group error-feedback scalars carried between
  // steps. For each group the residual is added before rounding, the codes
  // and scale are rewritten, `m` is overwritten with the dequantized values
  // (so the live weight equals the stored weight entering the next step), and
  // the residual becomes the group-mean rounding error — the standard
  // e_{t+1} = (v + e_t) − Q(v + e_t) error-feedback form with a group-mean
  // compressor. Allocation-free: runs on the analyzer-audited hot path.
  void requantize_stochastic(Matrix& m, float* residuals, Rng& rng);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t group() const { return group_; }
  int64_t num_groups() const { return static_cast<int64_t>(scales_.size()); }

  // Raw payload: the codes and one scale per group.
  const std::vector<int8_t>& codes() const { return q_; }
  const std::vector<float>& scales() const { return scales_; }
  static GroupQuantized from_payload(int64_t rows, int64_t cols, int64_t group,
                                     std::vector<int8_t> codes,
                                     std::vector<float> scales);

  // Storage cost: 1 byte per element + 4 bytes per group scale.
  int64_t bytes() const {
    return static_cast<int64_t>(q_.size()) +
           static_cast<int64_t>(scales_.size()) * 4;
  }

 private:
  int64_t rows_ = 0, cols_ = 0, group_ = 128;
  std::vector<int8_t> q_;
  std::vector<float> scales_;
};

// Block-wise dynamic 8-bit tensor for optimizer moments. `signed_values`
// selects a symmetric [-absmax, absmax] code (first moment) vs. an
// asymmetric [0, max] code (second moment, which is non-negative).
class BlockQuantized {
 public:
  BlockQuantized() = default;
  BlockQuantized(int64_t rows, int64_t cols, bool signed_values,
                 int64_t block = 128);

  // Overwrite contents from a float matrix (round-to-nearest). NaN gets
  // code 0 in both codes.
  void store(const Matrix& m);
  Matrix load() const;

  // Streaming per-block access for optimizer hot paths (the int8 rung of
  // optim::AdamMoments): decode or encode one block into a caller-owned
  // stack buffer of `block()` floats. store() and load() are loops over
  // these, so block-at-a-time updates are bit-for-bit the same as
  // full-matrix round trips — without ever materialising a full-size fp32
  // temporary.
  void load_block(int64_t b, float* out) const;
  void store_block(int64_t b, const float* in);
  int64_t block() const { return block_; }
  int64_t num_blocks() const { return static_cast<int64_t>(scales_.size()); }
  // Number of valid elements in block `b` (the tail block may be short).
  int64_t block_len(int64_t b) const {
    return std::min(block_, rows_ * cols_ - b * block_);
  }

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t bytes() const {
    return static_cast<int64_t>(q_.size()) +
           static_cast<int64_t>(scales_.size()) * 4;
  }

  // Raw payload for optimizer-state checkpoints (optim::AdamMoments):
  // rows·cols codes and num_blocks() scales.
  int8_t* codes() { return q_.data(); }
  const int8_t* codes() const { return q_.data(); }
  float* scales() { return scales_.data(); }
  const float* scales() const { return scales_.data(); }

 private:
  int64_t rows_ = 0, cols_ = 0, block_ = 128;
  bool signed_ = true;
  std::vector<int8_t> q_;     // signed code (or 0..255 stored offset-128)
  std::vector<float> scales_;
};

}  // namespace apollo
