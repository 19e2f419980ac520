// AdamW at bf16 moments: tracks fp32 AdamW closely at half the state bytes,
// and its state round-trips exactly at bf16 and int8.
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

TEST(AdamWBf16, LowPrecisionStateRoundTrips) {
  // The bf16 codes and the int8 codes and block scales are the state: a
  // copy loaded from the saved bytes steps on to the very weights the
  // original reaches. 200 elements leave the int8 rung a short tail block.
  for (const optim::MomentPrecision precision :
       {optim::MomentPrecision::kBf16, optim::MomentPrecision::kInt8}) {
    SCOPED_TRACE(static_cast<int>(precision));
    nn::Parameter p("w", 4, 50);
    Rng rng(4);
    p.value.fill_gaussian(rng, 0.f, 1.f);
    optim::AdamW opt({}, precision);
    opt.set_lr(0.01f);
    for (int s = 0; s < 3; ++s) {
      p.grad.fill_gaussian(rng, 0.f, 0.1f);
      opt.step({&p});
    }
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    ASSERT_TRUE(opt.save_state(f, {&p}));
    std::rewind(f);
    nn::Parameter q("w", 4, 50);
    q.value = p.value;
    optim::AdamW copy({}, precision);
    copy.set_lr(0.01f);
    ASSERT_TRUE(copy.load_state(f, {&q}));
    std::fclose(f);
    EXPECT_EQ(copy.state_bytes(), opt.state_bytes());
    for (int s = 0; s < 3; ++s) {
      p.grad.fill_gaussian(rng, 0.f, 0.1f);
      q.grad = p.grad;
      opt.step({&p});
      copy.step({&q});
    }
    EXPECT_TRUE(p.value == q.value);
  }
}

}  // namespace
}  // namespace apollo
