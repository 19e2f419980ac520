// AdamW at bf16 moments: tracks fp32 AdamW closely at half the state bytes,
// and its state stays out of checkpoints.
#include <gtest/gtest.h>

#include <cstdio>

#include "optim/adamw.h"
#include "tensor/ops.h"

namespace apollo {
namespace {

optim::AdamW bf16_adamw() {
  return optim::AdamW({}, optim::MomentPrecision::kBf16);
}

TEST(AdamWBf16, TracksFp32Closely) {
  nn::Parameter p("w", 8, 64), q("w", 8, 64);
  Rng rng(1);
  p.value.fill_gaussian(rng, 0.f, 1.f);
  q.value = p.value;
  optim::AdamW a16 = bf16_adamw();
  optim::AdamW a32;
  a16.set_lr(0.01f);
  a32.set_lr(0.01f);
  Rng grad_rng(2);
  for (int s = 0; s < 20; ++s) {
    p.grad.fill_gaussian(grad_rng, 0.f, 0.1f);
    q.grad = p.grad;
    a16.step({&p});
    a32.step({&q});
  }
  // bf16 keeps ~3 decimal digits; 20 steps of drift stay tiny relative to
  // the ~0.2 total weight movement.
  EXPECT_LT(max_abs_diff(p.value, q.value), 0.02f);
}

TEST(AdamWBf16, StateIsHalfOfFp32) {
  nn::Parameter p("w", 8, 64);
  Rng rng(3);
  p.grad.fill_gaussian(rng, 0.f, 0.1f);
  optim::AdamW opt = bf16_adamw();
  opt.set_lr(0.01f);
  opt.step({&p});
  EXPECT_EQ(opt.state_bytes(), 2 * 8 * 64 * 2);  // two bf16 moments
}

TEST(AdamWBf16, Name) {
  EXPECT_EQ(bf16_adamw().name(), "AdamW (bf16 states)");
}

TEST(AdamWBf16, LowPrecisionStateStaysOutOfCheckpoints) {
  // Only fp32 moments serialize. At bf16 and int8, save_state and load_state
  // return false without touching the stream or the state, so checkpoints
  // carry the weights alone.
  for (const optim::MomentPrecision precision :
       {optim::MomentPrecision::kBf16, optim::MomentPrecision::kInt8}) {
    nn::Parameter p("w", 2, 4);
    p.grad.fill(0.5f);
    optim::AdamW opt({}, precision);
    opt.step({&p});
    const int64_t bytes = opt.state_bytes();
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    EXPECT_FALSE(opt.save_state(f, {&p}));
    EXPECT_EQ(std::ftell(f), 0);
    EXPECT_FALSE(opt.load_state(f, {&p}));
    EXPECT_EQ(opt.state_bytes(), bytes);
    std::fclose(f);
  }
}

}  // namespace
}  // namespace apollo
