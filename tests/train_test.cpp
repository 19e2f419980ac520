// Trainer / schedule / fine-tune harness tests.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <cmath>

#include "core/apollo.h"
#include "core/factory.h"
#include "optim/adamw.h"
#include "train/finetune.h"
#include "train/schedule.h"
#include "train/trainer.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define APOLLO_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define APOLLO_SANITIZED_ALLOCATOR 1
#endif
#endif

namespace apollo {
namespace {

long minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

TEST(CosineSchedule, WarmupRampsLinearly) {
  train::CosineSchedule s(1.f, 100, 0.1f, 0.1f);
  EXPECT_NEAR(s.lr_at(0), 0.1f, 1e-6f);
  EXPECT_NEAR(s.lr_at(4), 0.5f, 1e-6f);
  EXPECT_NEAR(s.lr_at(9), 1.0f, 1e-6f);
}

TEST(CosineSchedule, DecaysToFinalFraction) {
  train::CosineSchedule s(1.f, 100, 0.1f, 0.1f);
  EXPECT_NEAR(s.lr_at(99), 0.1f, 0.01f);
  // Monotone decay after warm-up.
  for (int t = 10; t < 99; ++t) EXPECT_GE(s.lr_at(t), s.lr_at(t + 1) - 1e-7f);
}

TEST(CosineSchedule, MidpointIsMeanOfPeakAndFloor) {
  train::CosineSchedule s(2.f, 100, 0.f, 0.5f);
  // Halfway through decay: cosine = 0.5 → lr = floor + (peak−floor)/2.
  EXPECT_NEAR(s.lr_at(50), 1.5f, 0.05f);
}

TEST(Trainer, LossDecreasesAndDeterministic) {
  auto run = [] {
    nn::LlamaConfig cfg;
    cfg.vocab = 64; cfg.hidden = 16; cfg.intermediate = 40;
    cfg.n_heads = 2; cfg.n_layers = 2; cfg.seq_len = 16;
    nn::LlamaModel model(cfg, 3);
    data::CorpusConfig ccfg;
    ccfg.vocab = 64;
    data::SyntheticCorpus corpus(ccfg);
    optim::AdamW opt;
    train::TrainConfig tc;
    tc.steps = 60;
    tc.batch = 4;
    tc.lr = 3e-3f;
    tc.record_step_losses = true;
    train::Trainer t(model, opt, corpus, tc);
    return t.run();
  };
  auto r1 = run();
  // Training reduces loss vs. the near-uniform start.
  ASSERT_EQ(r1.step_losses.size(), 60u);
  EXPECT_LT(r1.step_losses.back(), r1.step_losses.front() * 0.95f);
  EXPECT_LT(r1.final_perplexity, 64.0);  // beats the uniform baseline
  // Bit-level reproducibility.
  auto r2 = run();
  EXPECT_EQ(r1.final_perplexity, r2.final_perplexity);
  EXPECT_EQ(r1.step_losses, r2.step_losses);
  EXPECT_GT(r1.peak_activation_bytes, 0);
  EXPECT_GT(r1.optimizer_state_bytes, 0);
}

TEST(Trainer, EvalCurveRecordsRequestedPoints) {
  nn::LlamaConfig cfg;
  cfg.vocab = 64; cfg.hidden = 16; cfg.intermediate = 40;
  cfg.n_heads = 2; cfg.n_layers = 1; cfg.seq_len = 16;
  nn::LlamaModel model(cfg, 4);
  data::CorpusConfig ccfg;
  ccfg.vocab = 64;
  data::SyntheticCorpus corpus(ccfg);
  optim::AdamW opt;
  train::TrainConfig tc;
  tc.steps = 30;
  tc.batch = 2;
  tc.eval_every = 10;
  train::Trainer t(model, opt, corpus, tc);
  auto r = t.run();
  ASSERT_EQ(r.curve.size(), 3u);  // steps 10, 20, 30
  EXPECT_EQ(r.curve[0].step, 10);
  EXPECT_EQ(r.curve.back().step, 30);
  for (const auto& pt : r.curve)
    EXPECT_NEAR(pt.perplexity, std::exp(pt.val_loss), 1e-6);
}

TEST(Trainer, QuantizedWeightTrainingRuns) {
  nn::LlamaConfig cfg;
  cfg.vocab = 64; cfg.hidden = 16; cfg.intermediate = 40;
  cfg.n_heads = 2; cfg.n_layers = 1; cfg.seq_len = 16;
  nn::LlamaModel model(cfg, 5);
  data::CorpusConfig ccfg;
  ccfg.vocab = 64;
  data::SyntheticCorpus corpus(ccfg);
  auto opt = core::Apollo::mini();
  core::QuantizedWeightStore store(model.parameters(), 11);
  train::TrainConfig tc;
  tc.steps = 40;
  tc.batch = 2;
  tc.lr = 0.01f;
  tc.record_step_losses = true;
  train::Trainer t(model, *opt, corpus, tc);
  t.set_quantized_weights(&store);
  auto r = t.run();
  EXPECT_LT(r.step_losses.back(), r.step_losses.front());
  EXPECT_LT(r.final_perplexity, 64.0);
  // Weight payload is INT8 (≈¼ the fp32 bytes + gains and scales).
  EXPECT_LT(store.weight_bytes(), model.param_count() * 2);
}

TEST(Trainer, FusedAccumQuantizedMatchesClassic) {
  // The full Q-APOLLO streaming composition: fused updates + gradient
  // accumulation + INT8 weight store must be bit-identical to the classic
  // accumulated loop over the same store (per-slot RNG streams make the
  // requantization order-independent — see train/update_pipeline.h).
  auto run = [](bool fused) {
    nn::LlamaConfig cfg;
    cfg.vocab = 64; cfg.hidden = 16; cfg.intermediate = 40;
    cfg.n_heads = 2; cfg.n_layers = 2; cfg.seq_len = 16;
    nn::LlamaModel model(cfg, 6);
    data::CorpusConfig ccfg;
    ccfg.vocab = 64;
    data::SyntheticCorpus corpus(ccfg);
    auto opt = core::Apollo::mini();
    core::QuantizedWeightStore store(model.parameters(), 12);
    train::TrainConfig tc;
    tc.steps = 8;
    tc.batch = 2;
    tc.grad_accum = 2;
    tc.lr = 0.01f;
    tc.fused_update = fused;
    tc.record_step_losses = true;
    train::Trainer t(model, *opt, corpus, tc);
    t.set_quantized_weights(&store);
    auto r = t.run();
    return std::make_pair(r, model.snapshot());
  };
  auto [rc, wc] = run(false);
  auto [rf, wf] = run(true);
  EXPECT_EQ(rc.step_losses, rf.step_losses);
  EXPECT_EQ(rc.final_perplexity, rf.final_perplexity);
  ASSERT_EQ(wc.size(), wf.size());
  for (size_t i = 0; i < wc.size(); ++i)
    EXPECT_TRUE(wc[i] == wf[i]) << "weight " << i;
  // Note: with accum > 1 the fused figures include the live accumulation
  // stash (a full gradient set), so the one-parameter collapse only shows
  // at accum == 1 — the memory-budget bench asserts that shape.
}

// The classic driver's accumulation stash holds a full gradient set while
// the second micro-batch's tape runs, so accumulating over two micro-batches
// raises the peak by exactly the stash's bytes.
TEST(Trainer, ClassicAccumulationPeakCountsTheStash) {
  auto run = [](int accum) {
    nn::LlamaModel model(nn::llama_60m_proxy(), 7);
    data::CorpusConfig ccfg;
    ccfg.vocab = model.config().vocab;
    data::SyntheticCorpus corpus(ccfg);
    optim::AdamW opt;
    train::TrainConfig tc;
    tc.steps = 2;
    tc.batch = 2;
    tc.grad_accum = accum;
    train::Trainer t(model, opt, corpus, tc);
    return std::make_pair(t.run(), model.param_count());
  };
  const auto [one, params] = run(1);
  const auto two = run(2).first;
  const int64_t stash = params * static_cast<int64_t>(sizeof(float));
  EXPECT_GT(one.peak_grad_bytes, 0);
  EXPECT_EQ(two.peak_grad_bytes, one.peak_grad_bytes + stash);
  EXPECT_EQ(two.peak_total_bytes, one.peak_total_bytes + stash);
}

// A steady-state step reuses the previous step's Matrix storage, so it
// faults in no new pages. Faults are counted, not timed: the difference
// between two run lengths is the cost of the extra steps alone, since set-up,
// first-step state and the final eval appear in both runs.
TEST(Trainer, SteadyStateStepsDoNotPageFault) {
#ifdef APOLLO_SANITIZED_ALLOCATOR
  GTEST_SKIP() << "the sanitizer's allocator quarantines freed memory";
#endif
  auto faults_for = [](bool fused, int steps) {
    const long before = minor_faults();
    const nn::LlamaConfig cfg = nn::llama_7b_proxy();
    nn::LlamaModel model(cfg, 21);
    data::CorpusConfig ccfg;
    ccfg.vocab = cfg.vocab;
    data::SyntheticCorpus corpus(ccfg);
    core::FactoryOptions fo;
    fo.rank = cfg.hidden / 4;
    auto opt = core::make_optimizer("apollo", fo);
    train::TrainConfig tc;
    tc.steps = steps;
    tc.batch = 8;
    tc.lr = core::default_lr("apollo");
    tc.fused_update = fused;
    train::Trainer t(model, *opt, corpus, tc);
    t.run();
    return minor_faults() - before;
  };
  constexpr int kShort = 2, kLong = 6;
  for (bool fused : {false, true}) {
    faults_for(fused, kShort);  // warm-up: first sight of every shape
    const long short_run = faults_for(fused, kShort);
    const long long_run = faults_for(fused, kLong);
    const double per_step =
        static_cast<double>(long_run - short_run) / (kLong - kShort);
    EXPECT_LT(per_step, 16.0) << (fused ? "fused" : "classic") << " update: "
                              << short_run << " faults in " << kShort
                              << " steps, " << long_run << " in " << kLong;
  }
}

TEST(Finetune, ImprovesTaskAccuracy) {
  nn::LlamaConfig cfg;
  cfg.vocab = 256; cfg.hidden = 32; cfg.intermediate = 88;
  cfg.n_heads = 4; cfg.n_layers = 2; cfg.seq_len = 32;
  nn::LlamaModel model(cfg, 6);
  data::SyntheticCorpus corpus({});
  data::TaskGenerator gen(corpus, 13);
  optim::AdamW opt;
  train::FinetuneConfig fc;
  fc.steps = 400;
  fc.batch = 16;
  fc.lr = 1e-3f;
  auto train_fn = [&](int b) {
    return gen.make_commonsense_batch(data::CommonsenseTask::kCopyLast, b, 32);
  };
  data::TaskGenerator eval_gen(corpus, 14);
  auto eval_fn = [&](int b) {
    return eval_gen.make_commonsense_batch(data::CommonsenseTask::kCopyLast, b,
                                           32);
  };
  auto res = train::finetune(model, opt, train_fn, eval_fn, fc);
  // Copy-last is trivially learnable: accuracy should climb well above the
  // untrained baseline.
  EXPECT_GT(res.accuracy, res.zero_shot + 0.2);
  EXPECT_GT(res.accuracy, 0.5);
}

TEST(Finetune, TaskAccuracyRestrictedToChoices) {
  // With a 2-way choice set, a random model scores ≈ 0.5, never ≈ 1/vocab.
  nn::LlamaConfig cfg;
  cfg.vocab = 256; cfg.hidden = 16; cfg.intermediate = 40;
  cfg.n_heads = 2; cfg.n_layers = 1; cfg.seq_len = 32;
  nn::LlamaModel model(cfg, 7);
  data::SyntheticCorpus corpus({});
  data::TaskGenerator gen(corpus, 15);
  auto batch =
      gen.make_commonsense_batch(data::CommonsenseTask::kParity, 64, 32);
  const double acc = train::task_accuracy(model, batch);
  EXPECT_GT(acc, 0.2);
  EXPECT_LT(acc, 0.85);
}

}  // namespace
}  // namespace apollo
