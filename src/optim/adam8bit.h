// 8-bit AdamW: full-rank moments stored block-quantized (bitsandbytes-style
// dynamic 8-bit with per-block absmax scales) — the "8-bit Adam" baseline of
// Table 3. Updates run in fp32 on dequantized blocks and are written back
// quantized, so persistent state is ~1 byte/element per moment.
#pragma once

#include <memory>
#include <vector>

#include "nn/parameter.h"
#include "optim/optimizer.h"
#include "quant/quant.h"
#include "tensor/check.h"
#include "tensor/matrix.h"

namespace apollo::optim {

class Adam8bit : public Optimizer {
 public:
  explicit Adam8bit(const AdamHyper& hp = {}) : hp_(hp) {}

  void begin_step(const nn::ParamList& params) override {
    Optimizer::begin_step(params);
    bc_ = bias_correction(hp_, t_);
    if (states_.size() < params.size()) states_.resize(params.size());
  }

  void step_param(nn::Parameter& p, int slot) override {
    APOLLO_CHECK_SAME_SHAPE(p.value, p.grad);
    State& s = states_[static_cast<size_t>(slot)];
    const Matrix& g = p.grad;
    if (!s.m) {
      // Lazy first-step state init, sized to the parameter once.
      s.m = std::make_unique<BlockQuantized>(  // lint:allow(hot-path-alloc)
          g.rows(), g.cols(), true);
      s.v = std::make_unique<BlockQuantized>(  // lint:allow(hot-path-alloc)
          g.rows(), g.cols(), false);
    }
    // Streaming block-at-a-time update: decode one block of each moment into
    // stack buffers, update, re-encode. Bit-identical to a full-matrix
    // load/update/store round trip (the update is element-local and the
    // per-block codec arithmetic matches load()/store() exactly) but never
    // materialises a full-size fp32 temporary — the only live fp32 state is
    // 2×kBlock floats.
    APOLLO_CHECK(s.m->block() == kBlock);
    float m[kBlock], v[kBlock];
    const int64_t nblocks = s.m->num_blocks();
    for (int64_t b = 0; b < nblocks; ++b) {
      s.m->load_block(b, m);
      s.v->load_block(b, v);
      const int64_t lo = b * kBlock;
      const int64_t len = s.m->block_len(b);
      for (int64_t k = 0; k < len; ++k) {
        const int64_t i = lo + k;
        p.value[i] -= lr_ * (adam_direction(m[k], v[k], g[i], hp_, bc_) +
                             hp_.weight_decay * p.value[i]);
      }
      s.m->store_block(b, m);
      s.v->store_block(b, v);
    }
  }

  std::string name() const override { return "8-bit Adam"; }
  int64_t state_bytes() const override {
    int64_t b = 0;
    for (const State& s : states_)
      if (s.m) b += s.m->bytes() + s.v->bytes();
    return b;
  }

 protected:
  const char* step_trace_name() const override { return "Adam8bit::step"; }

 private:
  static constexpr int64_t kBlock = 128;  // stack-buffer size in step_param

  struct State {
    std::unique_ptr<BlockQuantized> m, v;
  };
  AdamHyper hp_;
  BiasCorrection bc_;
  std::vector<State> states_;  // indexed by slot
};

}  // namespace apollo::optim
