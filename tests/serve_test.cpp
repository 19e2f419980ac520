// Serving subsystem tests (DESIGN.md §14). The load-bearing invariants:
//
//  1. Cached incremental decode is token-identical to a full-sequence
//     recompute — logits against the tape forward (the architecture's
//     reference implementation) within one window, and token streams
//     against a recorded oracle for arbitrary lengths and every sampling
//     mode — across prompt lengths, batch compositions, and every
//     available SIMD level.
//  2. Batch composition is invisible: a request's tokens are identical
//     whether it decodes alone or staggered into a full batch (continuous
//     batching must not change anyone's output).
//  3. Scheduler admission control: bounded queue, deadline expiry, drain.
//  4. The HTTP engine streams well-formed JSONL over a real socket.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "autograd/tape.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/json_min.h"
#include "serve/kv_cache.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"

namespace apollo {
namespace {

nn::LlamaConfig tiny() {
  nn::LlamaConfig c;
  c.vocab = 48;
  c.hidden = 16;
  c.intermediate = 40;
  c.n_heads = 2;
  c.n_layers = 2;
  c.seq_len = 8;
  return c;
}

std::vector<int32_t> ramp_prompt(int len) {
  std::vector<int32_t> p;
  for (int i = 0; i < len; ++i) p.push_back((i * 5 + 1) % 48);
  return p;
}

// ---------------------------------------------------------------------------
// Recorded decode oracle
// ---------------------------------------------------------------------------

// Token streams for tiny() recorded from the KV-cached single-request
// decoder that preceded serve::generate (same sampler, seed 1234), identical
// at every SIMD level. Indexed [model seed 11/14][prompt length][mode]; each
// stream is 20 tokens, so every generation wraps the 8-slot KV ring.
constexpr int kGoldenSeeds[] = {11, 14};
constexpr int kGoldenLengths[] = {0, 1, 3, 7, 12};
constexpr int kGoldenTokens = 20;
constexpr int32_t kGolden[2][5][4][kGoldenTokens] = {
    {  // model seed 11
        {  // prompt length 0
            {15, 34, 11, 11, 11, 11, 11, 11, 11, 11,
             0, 15, 34, 35, 31, 8, 8, 8, 8, 8},
            {2, 40, 32, 41, 4, 42, 21, 9, 27, 31,
             24, 10, 7, 31, 18, 39, 28, 46, 46, 39},
            {15, 16, 39, 43, 5, 28, 40, 16, 34, 36,
             8, 36, 32, 34, 35, 42, 47, 14, 28, 6},
            {27, 36, 23, 33, 18, 20, 26, 28, 44, 4,
             47, 19, 24, 28, 36, 42, 12, 19, 1, 6},
        },
        {  // prompt length 1
            {46, 18, 16, 14, 25, 46, 18, 16, 14, 25,
             46, 18, 16, 14, 25, 46, 18, 16, 14, 25},
            {2, 40, 32, 41, 4, 42, 21, 9, 27, 31,
             24, 10, 7, 31, 18, 39, 28, 46, 46, 39},
            {46, 46, 0, 36, 32, 2, 31, 8, 17, 4,
             31, 36, 32, 34, 35, 17, 16, 39, 4, 21},
            {30, 45, 40, 42, 47, 32, 28, 17, 30, 3,
             37, 16, 5, 6, 26, 44, 6, 10, 3, 43},
        },
        {  // prompt length 3
            {11, 11, 11, 11, 11, 11, 11, 0, 15, 34,
             35, 31, 8, 8, 8, 8, 8, 8, 8, 8},
            {1, 40, 32, 41, 4, 42, 21, 9, 27, 31,
             24, 10, 7, 31, 18, 39, 28, 46, 46, 39},
            {11, 26, 42, 47, 5, 7, 28, 39, 14, 1,
             39, 16, 14, 1, 30, 42, 47, 14, 28, 6},
            {0, 30, 3, 43, 20, 9, 0, 13, 3, 3,
             11, 23, 0, 35, 23, 33, 30, 37, 44, 44},
        },
        {  // prompt length 7
            {8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
             8, 8, 8, 8, 8, 8, 8, 8, 8, 8},
            {2, 40, 32, 41, 4, 42, 21, 9, 27, 31,
             24, 10, 7, 31, 18, 39, 28, 46, 46, 39},
            {8, 44, 22, 16, 14, 41, 37, 37, 38, 17,
             16, 34, 11, 5, 18, 46, 0, 47, 14, 34},
            {36, 21, 34, 25, 35, 16, 38, 31, 10, 24,
             23, 16, 25, 24, 22, 9, 6, 16, 22, 9},
        },
        {  // prompt length 12
            {8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
             8, 8, 8, 8, 8, 8, 8, 8, 8, 8},
            {2, 40, 32, 41, 4, 42, 21, 9, 27, 31,
             24, 10, 7, 31, 18, 39, 28, 46, 46, 39},
            {8, 44, 22, 35, 31, 34, 18, 16, 34, 36,
             4, 31, 8, 17, 14, 28, 24, 9, 46, 41},
            {36, 42, 7, 4, 37, 29, 22, 18, 12, 14,
             39, 24, 9, 22, 6, 4, 17, 13, 16, 21},
        },
    },
    {  // model seed 14
        {  // prompt length 0
            {22, 38, 15, 22, 38, 15, 18, 1, 40, 22,
             38, 40, 22, 38, 40, 22, 38, 40, 22, 38},
            {2, 40, 32, 41, 4, 42, 21, 9, 27, 30,
             23, 10, 6, 30, 17, 39, 29, 45, 46, 39},
            {22, 17, 37, 46, 24, 25, 47, 33, 28, 42,
             32, 1, 40, 4, 14, 24, 38, 25, 18, 13},
            {43, 46, 15, 30, 6, 6, 27, 27, 3, 21,
             25, 27, 41, 45, 30, 7, 28, 45, 17, 12},
        },
        {  // prompt length 1
            {40, 29, 39, 4, 24, 8, 27, 18, 1, 13,
             18, 1, 13, 18, 1, 13, 18, 1, 13, 18},
            {2, 40, 33, 41, 4, 42, 21, 9, 27, 30,
             23, 10, 6, 30, 17, 39, 29, 45, 46, 39},
            {40, 5, 26, 12, 14, 4, 15, 18, 46, 16,
             43, 23, 7, 13, 25, 16, 35, 4, 17, 13},
            {13, 5, 45, 26, 1, 47, 16, 12, 44, 21,
             31, 35, 24, 44, 41, 11, 12, 0, 20, 39},
        },
        {  // prompt length 3
            {42, 42, 42, 42, 42, 42, 42, 42, 42, 42,
             42, 42, 42, 42, 42, 42, 42, 42, 42, 42},
            {2, 40, 32, 41, 4, 42, 21, 9, 27, 30,
             23, 10, 6, 30, 17, 39, 29, 45, 46, 39},
            {42, 36, 8, 22, 38, 25, 47, 33, 28, 42,
             32, 1, 40, 4, 14, 24, 38, 25, 18, 13},
            {4, 4, 20, 1, 6, 8, 10, 31, 14, 19,
             37, 2, 14, 28, 20, 1, 10, 35, 39, 3},
        },
        {  // prompt length 7
            {42, 42, 42, 42, 42, 42, 42, 42, 42, 42,
             42, 42, 42, 42, 42, 42, 42, 42, 42, 42},
            {2, 40, 33, 41, 4, 42, 21, 9, 27, 30,
             23, 10, 6, 30, 17, 39, 29, 45, 46, 39},
            {42, 36, 8, 43, 28, 3, 34, 25, 22, 17,
             23, 39, 4, 34, 42, 3, 42, 36, 13, 34},
            {6, 28, 47, 44, 0, 28, 20, 0, 17, 6,
             31, 35, 23, 14, 18, 39, 42, 12, 45, 44},
        },
        {  // prompt length 12
            {27, 18, 1, 13, 18, 1, 13, 18, 1, 13,
             18, 1, 13, 18, 1, 13, 18, 1, 13, 18},
            {2, 40, 32, 41, 4, 42, 21, 9, 27, 30,
             23, 10, 6, 30, 17, 39, 29, 45, 46, 39},
            {27, 2, 22, 36, 1, 24, 23, 7, 38, 0,
             9, 0, 22, 36, 7, 20, 9, 13, 15, 4},
            {34, 40, 41, 23, 37, 8, 10, 2, 27, 36,
             16, 2, 31, 36, 14, 40, 0, 24, 14, 40},
        },
    },
};

// Mode 0 greedy; 1 T=0.9; 2 T=0.9 with top-k 5; 3 T=0.9 with top-p 0.85.
serve::GenParams golden_params(int mode) {
  serve::GenParams gp;
  gp.max_tokens = kGoldenTokens;
  gp.temperature = mode == 0 ? 0.f : 0.9f;
  gp.top_k = mode == 2 ? 5 : 0;
  gp.top_p = mode == 3 ? 0.85f : 1.f;
  return gp;
}

std::vector<int32_t> golden(int seed_idx, int len_idx, int mode) {
  const int32_t* s = kGolden[seed_idx][len_idx][mode];
  return {s, s + kGoldenTokens};
}

// ---------------------------------------------------------------------------
// KV-cache equivalence
// ---------------------------------------------------------------------------

TEST(ServeBatcher, CachedDecodeMatchesRecordedStreamsAcrossPromptLengths) {
  // Lengths straddle the seq_len=8 attention window: 12-long prompts and
  // 20-token generations both exercise the sliding-window ring.
  for (simd::Level level : simd::available_levels()) {
    ASSERT_TRUE(simd::set_level(level));
    for (int si = 0; si < 2; ++si) {
      nn::LlamaModel model(tiny(), static_cast<uint64_t>(kGoldenSeeds[si]));
      for (int li = 0; li < 5; ++li)
        for (int mode = 0; mode < 4; ++mode)
          EXPECT_EQ(serve::generate(model, ramp_prompt(kGoldenLengths[li]),
                                    golden_params(mode)),
                    golden(si, li, mode))
              << "SIMD level " << simd::level_name(level) << ", model seed "
              << kGoldenSeeds[si] << ", prompt length " << kGoldenLengths[li]
              << ", mode " << mode;
    }
  }
  simd::clear_level_override();
}

TEST(ServeBatcher, GenerateWithNoTokenBudgetReturnsNothing) {
  nn::LlamaModel model(tiny(), 11);
  serve::GenParams gp = golden_params(0);
  for (int budget : {0, -3}) {
    gp.max_tokens = budget;
    EXPECT_TRUE(serve::generate(model, ramp_prompt(3), gp).empty());
  }
}

// Feeds `window` token by token through a fresh lane of `dec` and expects
// each step's logits within 5e-4 of the tape forward of `model` at that
// position.
void expect_decode_matches_tape(nn::LlamaModel& model,
                                serve::BatchDecoder& dec,
                                const std::vector<int32_t>& window) {
  ag::Tape tape;
  const Matrix& ref = tape.value(model.forward(tape, window));
  serve::GenParams gp;
  gp.max_tokens = 1;
  const int lane = dec.admit(window, gp);
  for (size_t t = 0; t < window.size(); ++t) {
    dec.decode_step();
    const float* logits = dec.last_logits(lane);
    ASSERT_NE(logits, nullptr);
    for (int64_t v = 0; v < ref.cols(); ++v)
      EXPECT_NEAR(logits[v], ref.at(static_cast<int64_t>(t), v), 5e-4f)
          << "position " << t << " vocab " << v;
  }
  EXPECT_TRUE(dec.output(lane).done);
}

TEST(ServeBatcher, LogitsMatchTapeForwardExactly) {
  // Feeding a window token by token reproduces the tape forward's logits
  // at every position.
  nn::LlamaModel model(tiny(), 3);
  serve::BatchDecoder dec(model, 1);
  expect_decode_matches_tape(model, dec, {5, 1, 44, 2, 2, 30, 7, 19});
}

TEST(ServeBatcher, DecodeReadsTheLiveWeights) {
  // The decoder keeps no copy of the weights: a change made after it is
  // built shows in the very next step's logits.
  nn::LlamaModel model(tiny(), 3);
  serve::BatchDecoder dec(model, 1);
  scale_inplace(model.layers()[1].w_up->value, 1.5f);
  for (nn::Parameter* p : model.parameters())
    if (p == &model.lm_head()) scale_inplace(p->value, -2.f);
  expect_decode_matches_tape(model, dec, {5, 1, 44, 2, 2, 30, 7, 19});
}

TEST(ServeBatcher, FirstTokenDependsOnlyOnItself) {
  // With an empty cache, the first step equals the tape forward of a
  // window whose later tokens are arbitrary (causality).
  nn::LlamaModel model(tiny(), 8);
  serve::BatchDecoder dec(model, 1);
  const int lane = dec.admit({9}, serve::GenParams{});
  dec.decode_step();
  const float* logits = dec.last_logits(lane);
  ASSERT_NE(logits, nullptr);
  ag::Tape tape;
  const Matrix& ref =
      tape.value(model.forward(tape, {9, 0, 0, 0, 0, 0, 0, 0}));
  for (int64_t v = 0; v < ref.cols(); ++v)
    EXPECT_NEAR(logits[v], ref.at(0, v), 5e-4f);
}

TEST(ServeBatcher, LongDecodeStaysFinite) {
  // Slide far past the trained window; outputs must remain finite.
  nn::LlamaModel model(tiny(), 7);
  std::vector<int32_t> prompt;
  for (int t = 0; t < 40; ++t) prompt.push_back(t % 48);  // 5× the window
  serve::BatchDecoder dec(model, 1);
  serve::GenParams gp;
  gp.max_tokens = 1;
  const int lane = dec.admit(prompt, gp);
  for (size_t t = 0; t < prompt.size(); ++t) {
    dec.decode_step();
    const float* logits = dec.last_logits(lane);
    ASSERT_NE(logits, nullptr);
    for (int v = 0; v < tiny().vocab; ++v)
      ASSERT_TRUE(std::isfinite(logits[v])) << "step " << t;
    // Only the step that feeds the last prompt token emits.
    EXPECT_EQ(dec.output(lane).emitted, t + 1 == prompt.size());
  }
  EXPECT_TRUE(dec.output(lane).done);
}

TEST(ServeBatcher, CachedDecodeMatchesTapeForwardRecompute) {
  // Within one window, recompute every emission from scratch through the
  // tape forward (no cache at all) and compare greedy argmax tokens.
  nn::LlamaModel model(tiny(), 12);
  const auto& cfg = model.config();
  const std::vector<int32_t> prompt = {5, 1, 44};
  serve::GenParams gp;
  gp.temperature = 0.f;
  gp.max_tokens = 5;  // 3 prompt + 5 generated == seq_len
  const auto got = serve::generate(model, prompt, gp);
  ASSERT_EQ(static_cast<int>(got.size()), gp.max_tokens);

  std::vector<int32_t> prefix = prompt;
  for (int t = 0; t < gp.max_tokens; ++t) {
    std::vector<int32_t> window(static_cast<size_t>(cfg.seq_len), 0);
    std::copy(prefix.begin(), prefix.end(), window.begin());
    ag::Tape tape;
    const Matrix& logits = tape.value(model.forward(tape, window));
    const float* row = logits.row(static_cast<int64_t>(prefix.size()) - 1);
    int32_t best = 0;
    for (int64_t v = 1; v < logits.cols(); ++v)
      if (row[v] > row[best]) best = static_cast<int32_t>(v);
    EXPECT_EQ(got[static_cast<size_t>(t)], best) << "emission " << t;
    prefix.push_back(best);
  }
}

TEST(ServeBatcher, BatchCompositionDoesNotChangeAnyRequestsTokens) {
  nn::LlamaModel model(tiny(), 13);
  // Mixed workload: different prompt lengths, stochastic sampling params,
  // per-request seeds — admitted at different times into a shared batch.
  struct Req {
    std::vector<int32_t> prompt;
    serve::GenParams params;
    int admit_at_step;
  };
  std::vector<Req> reqs;
  for (int i = 0; i < 6; ++i) {
    Req r;
    r.prompt = ramp_prompt(1 + (i * 3) % 7);
    r.params.max_tokens = 4 + i;
    r.params.temperature = (i % 2 == 0) ? 0.f : 0.9f;
    r.params.top_k = (i % 3 == 0) ? 0 : 5;
    r.params.top_p = (i % 2 == 1) ? 0.85f : 1.f;
    r.params.seed = 1000 + static_cast<uint64_t>(i);
    r.admit_at_step = i;  // staggered: joins a batch already decoding
    reqs.push_back(std::move(r));
  }

  std::vector<std::vector<int32_t>> solo;
  for (const Req& r : reqs)
    solo.push_back(serve::generate(model, r.prompt, r.params));

  serve::BatchDecoder dec(model, 4);  // fewer lanes than requests
  std::vector<std::vector<int32_t>> batched(reqs.size());
  std::vector<int> lane_of(reqs.size(), -1);
  std::vector<bool> done(reqs.size(), false);
  size_t next_admit = 0;
  for (int step = 0; step < 4096; ++step) {
    while (next_admit < reqs.size() &&
           reqs[next_admit].admit_at_step <= step && dec.has_free_lane()) {
      lane_of[next_admit] =
          dec.admit(reqs[next_admit].prompt, reqs[next_admit].params);
      ASSERT_GE(lane_of[next_admit], 0);
      ++next_admit;
    }
    if (dec.active() == 0 && next_admit == reqs.size()) break;
    dec.decode_step();
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (lane_of[i] < 0 || done[i]) continue;
      const serve::DecodeOut& o = dec.output(lane_of[i]);
      if (o.emitted) batched[i].push_back(o.token);
      if (o.done) {
        done[i] = true;
        dec.release(lane_of[i]);  // lane becomes reusable mid-run
      }
    }
  }
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_TRUE(done[i]) << "request " << i << " never finished";
    EXPECT_EQ(batched[i], solo[i])
        << "request " << i << " changed output inside a batch";
  }
}

TEST(ServeBatcher, TokenIdentityHoldsAtEverySimdLevel) {
  // Each recorded stream of model seed 14, decoded in the middle lane of a
  // batch of three beside two long greedy neighbours, at every SIMD level.
  nn::LlamaModel model(tiny(), 14);
  serve::GenParams neighbour;
  neighbour.temperature = 0.f;
  neighbour.max_tokens = 64;  // outlives every recorded stream
  for (simd::Level level : simd::available_levels()) {
    ASSERT_TRUE(simd::set_level(level));
    for (int li = 0; li < 5; ++li) {
      for (int mode = 0; mode < 4; ++mode) {
        serve::BatchDecoder dec(model, 3);
        (void)dec.admit(ramp_prompt(2), neighbour);
        const int lane =
            dec.admit(ramp_prompt(kGoldenLengths[li]), golden_params(mode));
        (void)dec.admit(ramp_prompt(6), neighbour);
        std::vector<int32_t> got;
        for (int guard = 0; guard < 256 && !dec.output(lane).done; ++guard) {
          dec.decode_step();
          if (dec.output(lane).emitted) got.push_back(dec.output(lane).token);
        }
        EXPECT_EQ(got, golden(1, li, mode))
            << "SIMD level " << simd::level_name(level) << ", prompt length "
            << kGoldenLengths[li] << ", mode " << mode;
      }
    }
  }
  simd::clear_level_override();
}

TEST(ServeBatcher, StopTokenEndsStreamWithStopReason) {
  nn::LlamaModel model(tiny(), 15);
  serve::GenParams gp;
  gp.temperature = 0.f;
  gp.max_tokens = 8;
  const auto free_run = serve::generate(model, ramp_prompt(3), gp);
  ASSERT_GE(free_run.size(), 2u);

  serve::GenParams stop = gp;
  stop.stop_token = free_run[1];
  serve::BatchDecoder dec(model, 1);
  const int lane = dec.admit(ramp_prompt(3), stop);
  std::vector<int32_t> got;
  serve::FinishReason reason = serve::FinishReason::kLength;
  for (int guard = 0; guard < 64; ++guard) {
    dec.decode_step();
    const serve::DecodeOut& o = dec.output(lane);
    if (o.emitted) got.push_back(o.token);
    if (o.done) {
      reason = o.finish;
      break;
    }
  }
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(got.back(), stop.stop_token);
  EXPECT_EQ(reason, serve::FinishReason::kStop);
}

// ---------------------------------------------------------------------------
// KV arena
// ---------------------------------------------------------------------------

TEST(ServeKvArena, BytesMatchTheDocumentedFormula) {
  serve::KvArena arena(/*slots=*/3, /*n_layers=*/2, /*window=*/8,
                       /*hidden=*/16);
  EXPECT_EQ(arena.bytes(), 3LL * 2 * 2 * 8 * 16 * 4);
  EXPECT_EQ(serve::KvArena::bytes_per_slot(2, 8, 16) * 3, arena.bytes());
}

TEST(ServeKvArena, SlotLayerRingRowsAreDisjoint) {
  const int hidden = 4;
  serve::KvArena arena(2, 2, 3, hidden);
  // Stamp a unique value into every (slot, layer, ring, k/v) row...
  float stamp = 1.f;
  for (int s = 0; s < 2; ++s)
    for (int l = 0; l < 2; ++l)
      for (int r = 0; r < 3; ++r) {
        std::fill(arena.k_row(s, l, r), arena.k_row(s, l, r) + hidden,
                  stamp);
        std::fill(arena.v_row(s, l, r), arena.v_row(s, l, r) + hidden,
                  -stamp);
        stamp += 1.f;
      }
  // ...and read it all back: any overlap would have clobbered something.
  stamp = 1.f;
  for (int s = 0; s < 2; ++s)
    for (int l = 0; l < 2; ++l)
      for (int r = 0; r < 3; ++r) {
        EXPECT_EQ(arena.k_row(s, l, r)[hidden - 1], stamp);
        EXPECT_EQ(arena.v_row(s, l, r)[0], -stamp);
        stamp += 1.f;
      }
  arena.clear_slot(0);
  EXPECT_EQ(arena.k_row(0, 1, 2)[0], 0.f);
  EXPECT_NE(arena.k_row(1, 0, 0)[0], 0.f);
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

serve::ServeRequest make_req(uint64_t id, int64_t submit_ms,
                             int64_t deadline_ms = 0) {
  serve::ServeRequest r;
  r.id = id;
  r.prompt = {1, 2};
  r.submit_ms = submit_ms;
  r.deadline_ms = deadline_ms;
  return r;
}

TEST(ServeScheduler, BoundedQueueRejectsOverflowInFifoOrder) {
  serve::Scheduler sched(serve::SchedConfig{/*max_queue=*/2,
                                            /*default_deadline_ms=*/0});
  EXPECT_EQ(sched.submit(make_req(1, 0)), serve::Admission::kAccepted);
  EXPECT_EQ(sched.submit(make_req(2, 0)), serve::Admission::kAccepted);
  EXPECT_EQ(sched.submit(make_req(3, 0)), serve::Admission::kQueueFull);
  EXPECT_EQ(sched.queue_depth(), 2);

  std::vector<serve::ServeRequest> expired;
  serve::ServeRequest out;
  ASSERT_TRUE(sched.pop_next(0, &out, &expired));
  EXPECT_EQ(out.id, 1u);
  ASSERT_TRUE(sched.pop_next(0, &out, &expired));
  EXPECT_EQ(out.id, 2u);
  EXPECT_FALSE(sched.pop_next(0, &out, &expired));
  EXPECT_TRUE(expired.empty());
}

TEST(ServeScheduler, DrainRefusesNewWorkButKeepsQueued) {
  serve::Scheduler sched(serve::SchedConfig{4, 0});
  EXPECT_EQ(sched.submit(make_req(1, 0)), serve::Admission::kAccepted);
  sched.begin_drain();
  EXPECT_EQ(sched.submit(make_req(2, 0)), serve::Admission::kDraining);
  EXPECT_EQ(sched.queue_depth(), 1);
  std::vector<serve::ServeRequest> expired;
  serve::ServeRequest out;
  EXPECT_TRUE(sched.pop_next(0, &out, &expired));
  EXPECT_EQ(out.id, 1u);
}

TEST(ServeScheduler, DefaultDeadlineAppliesAndExpireEvicts) {
  serve::Scheduler sched(serve::SchedConfig{4, /*default_deadline_ms=*/100});
  EXPECT_EQ(sched.submit(make_req(1, /*submit_ms=*/50)),
            serve::Admission::kAccepted);
  // Explicit deadlines are kept as-is.
  EXPECT_EQ(sched.submit(make_req(2, 50, /*deadline_ms=*/500)),
            serve::Admission::kAccepted);

  std::vector<serve::ServeRequest> expired;
  sched.expire(149, &expired);
  EXPECT_TRUE(expired.empty()) << "deadline is submit + default";
  sched.expire(200, &expired);  // id 1 expires at 150, id 2 lives to 500
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1u);
  EXPECT_EQ(sched.queue_depth(), 1);
}

TEST(ServeScheduler, PopSkipsExpiredRequests) {
  serve::Scheduler sched(serve::SchedConfig{4, 0});
  EXPECT_EQ(sched.submit(make_req(1, 0, /*deadline_ms=*/10)),
            serve::Admission::kAccepted);
  EXPECT_EQ(sched.submit(make_req(2, 0)), serve::Admission::kAccepted);
  std::vector<serve::ServeRequest> expired;
  serve::ServeRequest out;
  ASSERT_TRUE(sched.pop_next(/*now_ms=*/20, &out, &expired));
  EXPECT_EQ(out.id, 2u);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1u);
}

TEST(ServeScheduler, ZeroDeadlineNeverExpires) {
  // deadline_ms == 0 means "no deadline", not "already expired" — a request
  // admitted with 0 (and no default) must survive any clock value.
  serve::Scheduler sched(serve::SchedConfig{4, /*default_deadline_ms=*/0});
  EXPECT_EQ(sched.submit(make_req(1, 0, /*deadline_ms=*/0)),
            serve::Admission::kAccepted);
  std::vector<serve::ServeRequest> expired;
  sched.expire(INT64_MAX, &expired);
  EXPECT_TRUE(expired.empty());
  serve::ServeRequest out;
  ASSERT_TRUE(sched.pop_next(INT64_MAX, &out, &expired));
  EXPECT_EQ(out.id, 1u);
  EXPECT_TRUE(expired.empty());
}

TEST(ServeScheduler, DeadlineExpiresOnExactBoundary) {
  // The deadline is exclusive of life at its own instant: now == deadline
  // already expires (the >= contract), now == deadline - 1 does not.
  serve::Scheduler sched(serve::SchedConfig{4, 0});
  EXPECT_EQ(sched.submit(make_req(1, 0, /*deadline_ms=*/100)),
            serve::Admission::kAccepted);
  std::vector<serve::ServeRequest> expired;
  sched.expire(99, &expired);
  EXPECT_TRUE(expired.empty());
  sched.expire(100, &expired);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1u);
  EXPECT_EQ(sched.queue_depth(), 0);

  EXPECT_EQ(sched.submit(make_req(2, 0, /*deadline_ms=*/100)),
            serve::Admission::kAccepted);
  expired.clear();
  serve::ServeRequest out;
  EXPECT_FALSE(sched.pop_next(/*now_ms=*/100, &out, &expired));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 2u);
}

// ---------------------------------------------------------------------------
// Request JSON
// ---------------------------------------------------------------------------

TEST(ServeJson, ParsesFlatObjectsOfEveryKind) {
  std::map<std::string, serve::JsonValue> obj;
  std::string err;
  ASSERT_TRUE(serve::parse_json_object(
      R"({"s":"a\"bA","n":-2.5e1,"t":true,"f":false,"z":null,)"
      R"("a":[1,2,3]})",
      obj, &err))
      << err;
  EXPECT_EQ(obj.at("s").str, "a\"bA");
  EXPECT_EQ(obj.at("n").num, -25.0);
  EXPECT_TRUE(obj.at("t").boolean);
  EXPECT_FALSE(obj.at("f").boolean);
  EXPECT_EQ(obj.at("z").kind, serve::JsonValue::Kind::kNull);
  ASSERT_EQ(obj.at("a").arr.size(), 3u);
  EXPECT_EQ(obj.at("a").arr[2], 3.0);
}

TEST(ServeJson, RejectsMalformedInput) {
  std::map<std::string, serve::JsonValue> obj;
  std::string err;
  EXPECT_FALSE(serve::parse_json_object(R"({"a":{"nested":1}})", obj, &err));
  EXPECT_FALSE(serve::parse_json_object(R"({"a":1,"a":2})", obj, &err));
  EXPECT_NE(err.find("duplicate"), std::string::npos);
  EXPECT_FALSE(serve::parse_json_object(R"({"a":1} trailing)", obj, &err));
  // \u escapes above 0xFF have no byte-level token mapping.
  EXPECT_FALSE(serve::parse_json_object("{\"a\":\"\\u0100\"}", obj, &err));
  EXPECT_FALSE(serve::parse_json_object(R"({"a":01x})", obj, &err));
  EXPECT_TRUE(serve::parse_json_object(R"({"a":"ÿ"})", obj, &err));
}

// ---------------------------------------------------------------------------
// HTTP engine (loopback, single-threaded: the test pumps the engine)
// ---------------------------------------------------------------------------

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  return fd;
}

// Pumps the engine until `fd` closes, collecting the raw response.
std::string pump_until_closed(serve::ServeEngine& engine, int fd) {
  std::string response;
  char buf[4096];
  for (int guard = 0; guard < 20000; ++guard) {
    engine.pump(0);
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got > 0) response.append(buf, static_cast<size_t>(got));
    if (got == 0) return response;  // server closed: stream complete
  }
  ADD_FAILURE() << "connection never closed; got so far: " << response;
  return response;
}

TEST(ServeEngine, StreamsTokensOverLoopbackHttp) {
  nn::LlamaModel model(tiny(), 16);
  serve::EngineConfig cfg;
  cfg.port = 0;
  cfg.max_batch = 2;
  serve::ServeEngine engine(model, cfg);
  ASSERT_GT(engine.port(), 0);

  const int fd = connect_loopback(engine.port());
  const std::string body = R"({"tokens":[1,2,3],"max_tokens":4})";
  const std::string request =
      "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string response = pump_until_closed(engine, fd);
  ::close(fd);

  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(response.find("\"event\":\"start\""), std::string::npos);
  EXPECT_NE(response.find("\"finish_reason\":\"length\""), std::string::npos)
      << response;
  // Four token lines for max_tokens 4.
  size_t tokens = 0;
  for (size_t at = response.find("{\"token\":"); at != std::string::npos;
       at = response.find("{\"token\":", at + 1))
    ++tokens;
  EXPECT_EQ(tokens, 4u) << response;
}

// True when `s` is well-formed UTF-8 (lead byte, then the continuation
// bytes it announces).
bool valid_utf8(const std::string& s) {
  for (size_t i = 0; i < s.size();) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    const size_t len = c < 0x80           ? 1
                       : (c >> 5) == 0x6  ? 2
                       : (c >> 4) == 0xE  ? 3
                       : (c >> 3) == 0x1E ? 4
                                          : 0;
    if (len == 0 || i + len > s.size()) return false;
    for (size_t k = 1; k < len; ++k)
      if ((static_cast<unsigned char>(s[i + k]) >> 6) != 0x2) return false;
    i += len;
  }
  return true;
}

TEST(ServeEngine, HighByteTokensStreamAsValidUtf8Json) {
  // A byte-level model samples ids 128-255 too; each token line must still
  // be valid UTF-8 JSON whose `text` decodes back to the token's byte.
  nn::LlamaConfig mc = tiny();
  mc.vocab = 256;
  nn::LlamaModel model(mc, 18);
  serve::EngineConfig cfg;
  cfg.port = 0;
  cfg.max_batch = 1;
  serve::ServeEngine engine(model, cfg);

  const int fd = connect_loopback(engine.port());
  const std::string body =
      R"({"tokens":[1,2],"max_tokens":32,"temperature":1.0,"seed":5})";
  const std::string request =
      "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body;
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string response = pump_until_closed(engine, fd);
  ::close(fd);

  int lines = 0, high = 0;
  for (size_t at = response.find("{\"token\":"); at != std::string::npos;
       at = response.find("{\"token\":", at + 1)) {
    const std::string line = response.substr(at, response.find('\n', at) - at);
    ++lines;
    EXPECT_TRUE(valid_utf8(line)) << line;
    std::map<std::string, serve::JsonValue> obj;
    std::string err;
    ASSERT_TRUE(serve::parse_json_object(line, obj, &err)) << err << ": "
                                                           << line;
    const int token = static_cast<int>(obj.at("token").num);
    const std::string byte =
        token == 0 ? std::string() : std::string(1, static_cast<char>(token));
    EXPECT_EQ(obj.at("text").str, byte) << line;
    if (token >= 0x80) ++high;
  }
  EXPECT_EQ(lines, 32) << response;
  EXPECT_GT(high, 0) << "no token >= 128 sampled; pick another seed";
}

TEST(ServeEngine, ConcurrentRequestsAllCompleteAndMatchSoloDecode) {
  nn::LlamaModel model(tiny(), 16);
  serve::EngineConfig cfg;
  cfg.port = 0;
  cfg.max_batch = 2;  // 3 clients on 2 lanes: one queues
  serve::ServeEngine engine(model, cfg);

  serve::GenParams gp;
  gp.temperature = 0.f;
  gp.max_tokens = 5;

  std::vector<int> fds;
  std::vector<std::vector<int32_t>> want;
  for (int i = 0; i < 3; ++i) {
    const std::vector<int32_t> prompt = ramp_prompt(2 + i);
    want.push_back(serve::generate(model, prompt, gp));
    std::string toks = "[";
    for (size_t j = 0; j < prompt.size(); ++j) {
      if (j != 0) toks += ',';
      toks += std::to_string(prompt[j]);
    }
    toks += "]";
    const std::string body =
        "{\"tokens\":" + toks + ",\"max_tokens\":5}";
    const std::string request =
        "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
        std::to_string(body.size()) + "\r\n\r\n" + body;
    const int fd = connect_loopback(engine.port());
    ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    fds.push_back(fd);
  }
  for (int i = 0; i < 3; ++i) {
    const std::string response = pump_until_closed(engine, fds[i]);
    ::close(fds[i]);
    std::vector<int32_t> got;
    for (size_t at = response.find("{\"token\":"); at != std::string::npos;
         at = response.find("{\"token\":", at + 1))
      got.push_back(static_cast<int32_t>(
          std::strtol(response.c_str() + at + 9, nullptr, 10)));
    EXPECT_EQ(got, want[static_cast<size_t>(i)]) << "client " << i;
  }
}

TEST(ServeEngine, HealthAndErrorRoutes) {
  nn::LlamaModel model(tiny(), 17);
  serve::EngineConfig cfg;
  cfg.port = 0;
  serve::ServeEngine engine(model, cfg);

  const int fd = connect_loopback(engine.port());
  const std::string request = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string health = pump_until_closed(engine, fd);
  ::close(fd);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;

  const int fd2 = connect_loopback(engine.port());
  const std::string bad_body = R"({"bogus":1})";
  const std::string bad =
      "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
      std::to_string(bad_body.size()) + "\r\n\r\n" + bad_body;
  ASSERT_EQ(::send(fd2, bad.data(), bad.size(), 0),
            static_cast<ssize_t>(bad.size()));
  const std::string resp = pump_until_closed(engine, fd2);
  ::close(fd2);
  EXPECT_NE(resp.find("400"), std::string::npos) << resp;
  EXPECT_NE(resp.find("unknown field"), std::string::npos) << resp;

  const int fd3 = connect_loopback(engine.port());
  const std::string missing = "GET /nope HTTP/1.1\r\nHost: t\r\n\r\n";
  ASSERT_EQ(::send(fd3, missing.data(), missing.size(), 0),
            static_cast<ssize_t>(missing.size()));
  const std::string notfound = pump_until_closed(engine, fd3);
  ::close(fd3);
  EXPECT_NE(notfound.find("404"), std::string::npos) << notfound;
}

std::string generate_request(const std::string& body) {
  return "POST /v1/generate HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// A deadline that fires between decode steps must close the stream with
// finish_reason "deadline" AND return the lane (and its KV slot) to the
// pool — a leaked lane would wedge every later request on a 1-lane engine.
TEST(ServeEngine, DeadlineExpiryReleasesLaneCleanly) {
  nn::LlamaModel model(tiny(), 16);
  serve::EngineConfig cfg;
  cfg.port = 0;
  cfg.max_batch = 1;
  serve::ServeEngine engine(model, cfg);

  const int fd = connect_loopback(engine.port());
  // max_tokens (the 4096 cap) is far beyond what 1 ms of decoding can
  // emit, so only the deadline can end this stream.
  const std::string request = generate_request(
      R"({"tokens":[1,2],"max_tokens":4096,"deadline_ms":1})");
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string response = pump_until_closed(engine, fd);
  ::close(fd);
  EXPECT_NE(response.find("\"finish_reason\":\"deadline\""),
            std::string::npos)
      << response;
  EXPECT_EQ(engine.decoder().active(), 0);
  EXPECT_TRUE(engine.decoder().has_free_lane());

  // The reclaimed lane must serve a fresh request end to end.
  const int fd2 = connect_loopback(engine.port());
  const std::string again =
      generate_request(R"({"tokens":[1,2],"max_tokens":3})");
  ASSERT_EQ(::send(fd2, again.data(), again.size(), 0),
            static_cast<ssize_t>(again.size()));
  const std::string response2 = pump_until_closed(engine, fd2);
  ::close(fd2);
  EXPECT_NE(response2.find("\"finish_reason\":\"length\""),
            std::string::npos)
      << response2;
  EXPECT_EQ(engine.decoder().active(), 0);
}

TEST(ServeEngine, QueueFullRejectionCarriesRetryAfter) {
  nn::LlamaModel model(tiny(), 16);
  serve::EngineConfig cfg;
  cfg.port = 0;
  cfg.max_batch = 1;
  cfg.max_queue = 1;
  serve::ServeEngine engine(model, cfg);

  // Fill the lane and the queue with long generations...
  const std::string longreq =
      generate_request(R"({"tokens":[1,2],"max_tokens":4096})");
  const int fd_lane = connect_loopback(engine.port());
  ASSERT_EQ(::send(fd_lane, longreq.data(), longreq.size(), 0),
            static_cast<ssize_t>(longreq.size()));
  for (int i = 0; i < 50; ++i) engine.pump(0);  // admit to the lane
  const int fd_queue = connect_loopback(engine.port());
  ASSERT_EQ(::send(fd_queue, longreq.data(), longreq.size(), 0),
            static_cast<ssize_t>(longreq.size()));
  for (int i = 0; i < 50; ++i) engine.pump(0);  // park in the queue

  // ...so the third request bounces with a back-off hint.
  const int fd = connect_loopback(engine.port());
  const std::string request =
      generate_request(R"({"tokens":[1,2],"max_tokens":4})");
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  const std::string response = pump_until_closed(engine, fd);
  ::close(fd);
  EXPECT_NE(response.find("HTTP/1.1 429"), std::string::npos) << response;
  EXPECT_NE(response.find("\"error\":\"queue full\""), std::string::npos);
  const std::string header = "Retry-After: ";
  const size_t at = response.find(header);
  ASSERT_NE(at, std::string::npos) << response;
  const long secs =
      std::strtol(response.c_str() + at + header.size(), nullptr, 10);
  EXPECT_GE(secs, 1);
  EXPECT_LE(secs, 60);
  ::close(fd_lane);
  ::close(fd_queue);
}

}  // namespace
}  // namespace apollo
