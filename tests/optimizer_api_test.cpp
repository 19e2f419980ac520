// Streaming optimizer API tests: for every registered method, the
// decomposed begin_step / step_param / end_step path must produce exactly
// the weights and state accounting of the monolithic step() — even when
// step_param is called in reverse slot order, as the fused backward path
// delivers gradients in backward-completion rather than slot order.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "core/factory.h"
#include "core/threadpool.h"
#include "fault/crc32.h"
#include "nn/parameter.h"
#include "optim/adamw.h"
#include "sysmodel/memory_model.h"
#include "tensor/matrix.h"
#include "train/checkpoint.h"
#include "train/trainer.h"

namespace apollo {
namespace {

// Mixed parameter shapes: projected 2-D weights on both sides, a small
// matrix that falls back to dense treatment at rank 4, and a 1-D gain.
struct ParamSet {
  std::vector<std::unique_ptr<nn::Parameter>> owned;
  nn::ParamList list;

  explicit ParamSet(uint64_t seed) {
    Rng rng(seed);
    auto add = [&](int64_t rows, int64_t cols, bool matrix) {
      std::string name = "p";
      name += std::to_string(owned.size());
      owned.push_back(
          std::make_unique<nn::Parameter>(name, rows, cols, matrix));
      owned.back()->value.fill_gaussian(rng, 0.f, 1.f);
      list.push_back(owned.back().get());
    };
    add(12, 8, true);   // tall: projected at rank 4
    add(8, 12, true);   // wide: projected on the other side
    add(3, 3, true);    // min-dim ≤ rank: dense fallback
    add(1, 8, false);   // 1-D gain: dense fallback for projected methods
    add(16, 6, true);
  }

  void fill_grads(uint64_t seed) {
    Rng rng(seed);
    for (auto& p : owned) p->grad.fill_gaussian(rng, 0.f, 0.1f);
  }
};

core::FactoryOptions options() {
  core::FactoryOptions fo;
  fo.rank = 4;
  fo.update_freq = 3;  // several projector refresh boundaries in 8 steps
  fo.weight_decay = 0.01f;
  return fo;
}

}  // namespace

TEST(StreamingApi, ReversedStepParamMatchesStepBitForBit) {
  for (const std::string& name : core::known_optimizers()) {
    SCOPED_TRACE(name);
    auto mono = core::make_optimizer(name, options());
    auto strm = core::make_optimizer(name, options());
    ASSERT_NE(mono, nullptr);
    ASSERT_NE(strm, nullptr);
    ParamSet pa(7), pb(7);
    mono->set_lr(1e-3f);
    strm->set_lr(1e-3f);
    for (int step = 0; step < 8; ++step) {
      pa.fill_grads(100 + static_cast<uint64_t>(step));
      pb.fill_grads(100 + static_cast<uint64_t>(step));
      mono->step(pa.list);
      strm->begin_step(pb.list);
      for (int i = static_cast<int>(pb.list.size()) - 1; i >= 0; --i)
        strm->step_param(*pb.list[static_cast<size_t>(i)], i);
      strm->end_step(pb.list);
      for (size_t i = 0; i < pa.list.size(); ++i)
        EXPECT_TRUE(pa.list[i]->value == pb.list[i]->value)
            << "step " << step << ", param " << pa.list[i]->name;
    }
    EXPECT_EQ(mono->state_bytes(), strm->state_bytes());
  }
}

TEST(StreamingApi, StatePersistsAcrossInterleavedOrders) {
  // Alternate slot order between steps: per-slot state must stay keyed to
  // the parameter's position, not to call order.
  for (const std::string& name : core::known_optimizers()) {
    SCOPED_TRACE(name);
    auto mono = core::make_optimizer(name, options());
    auto strm = core::make_optimizer(name, options());
    ParamSet pa(11), pb(11);
    mono->set_lr(2e-3f);
    strm->set_lr(2e-3f);
    for (int step = 0; step < 6; ++step) {
      pa.fill_grads(900 + static_cast<uint64_t>(step));
      pb.fill_grads(900 + static_cast<uint64_t>(step));
      mono->step(pa.list);
      strm->begin_step(pb.list);
      const int n = static_cast<int>(pb.list.size());
      if (step % 2 == 0) {
        for (int i = 0; i < n; ++i)
          strm->step_param(*pb.list[static_cast<size_t>(i)], i);
      } else {
        for (int i = n - 1; i >= 0; --i)
          strm->step_param(*pb.list[static_cast<size_t>(i)], i);
      }
      strm->end_step(pb.list);
    }
    for (size_t i = 0; i < pa.list.size(); ++i)
      EXPECT_TRUE(pa.list[i]->value == pb.list[i]->value)
          << "param " << pa.list[i]->name;
  }
}

TEST(StreamingApi, FusedAccumMatchesClassicAccumForEveryOptimizer) {
  // Trainer-level contract behind train/update_pipeline.h: with gradient
  // accumulation, the fused backward+optimizer path (per-micro gradients
  // stashed at leaf-completion) must reproduce the classic accumulated loop
  // bit for bit — loss stream, final weights, and checkpoint bytes — for
  // every registered optimizer.
  auto run = [](const std::string& name, bool fused, int accum,
                train::TrainResult& out) {
    nn::LlamaConfig cfg;
    cfg.vocab = 64; cfg.hidden = 16; cfg.intermediate = 40;
    cfg.n_heads = 2; cfg.n_layers = 2; cfg.seq_len = 16;
    nn::LlamaModel model(cfg, 17);
    data::CorpusConfig ccfg;
    ccfg.vocab = 64;
    data::SyntheticCorpus corpus(ccfg);
    auto opt = core::make_optimizer(name, options());
    train::TrainConfig tc;
    tc.steps = 5;
    tc.batch = 2;
    tc.grad_accum = accum;
    tc.lr = 2e-3f;
    tc.fused_update = fused;
    tc.record_step_losses = true;
    train::Trainer t(model, *opt, corpus, tc);
    out = t.run();
    const std::string path = ::testing::TempDir() + "fused_drill_" + name +
                             (fused ? "_f" : "_c") + std::to_string(accum) +
                             ".ckpt";
    EXPECT_TRUE(train::save_checkpoint(path, model, tc.steps, opt.get()).ok);
    return path;
  };
  auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  for (const std::string& name : core::known_optimizers()) {
    for (const int accum : {2, 4}) {
      SCOPED_TRACE(name + " accum=" + std::to_string(accum));
      train::TrainResult classic, fused;
      const std::string ca = run(name, /*fused=*/false, accum, classic);
      const std::string fa = run(name, /*fused=*/true, accum, fused);
      EXPECT_EQ(classic.step_losses, fused.step_losses);
      EXPECT_EQ(classic.final_perplexity, fused.final_perplexity);
      const std::string cb = file_bytes(ca), fb = file_bytes(fa);
      ASSERT_FALSE(cb.empty());
      EXPECT_TRUE(cb == fb) << "checkpoint bytes differ";
      std::remove(ca.c_str());
      std::remove(fa.c_str());
    }
  }
}

TEST(StreamingApi, AdamWStateBytesMatchSysmodel) {
  // The slot-keyed state accounting must still land on the Table-1 formula
  // (2mn fp32 elements per weight) when driven through the streaming API.
  auto opt = core::make_optimizer("adamw", options());
  ParamSet ps(3);
  ps.fill_grads(5);
  opt->set_lr(1e-3f);
  opt->begin_step(ps.list);
  for (int i = 0; i < static_cast<int>(ps.list.size()); ++i)
    opt->step_param(*ps.list[static_cast<size_t>(i)], i);
  opt->end_step(ps.list);
  int64_t expect = 0;
  for (const nn::Parameter* p : ps.list)
    expect += sysmodel::state_elements(sysmodel::Method::kAdamW,
                                       p->value.rows(), p->value.cols(),
                                       /*rank=*/4) *
              static_cast<int64_t>(sizeof(float));
  EXPECT_EQ(opt->state_bytes(), expect);
}

// --- precision-ladder golden -------------------------------------------------
// AdamW at each rung of AdamMoments' ladder on a recipe where every product
// is exact: β₁ = β₂ = ½, ε = 2⁻¹⁰, lr = 2⁻⁶, no weight decay, and weights
// and gradients on a 2⁻¹⁰ grid in (−2, 2). No FMA contraction can move a
// bit, so the fingerprint holds in every build, sanitizer builds included.
// The 64×300 weight is above the pool grain, so its blocks split across
// threads. Recorded with the fp32 DenseAdamCore and the standalone bf16 and
// 8-bit AdamW classes this store replaced.

namespace {

float grid_value(Rng& rng) {
  return static_cast<float>(static_cast<int64_t>(rng.next_below(4095)) -
                            2047) /
         1024.f;
}

uint32_t ladder_fingerprint(optim::MomentPrecision precision) {
  optim::AdamHyper hp;
  hp.beta1 = 0.5f;
  hp.beta2 = 0.5f;
  hp.eps = 1.f / 1024.f;
  hp.weight_decay = 0.f;
  optim::AdamW opt(hp, precision);
  opt.set_lr(1.f / 64.f);
  struct Shape {
    int64_t rows, cols;
    bool matrix;
  };
  const Shape shapes[] = {
      {3, 300, true}, {16, 8, true}, {1, 8, false}, {5, 131, true},
      {64, 300, true}};
  std::vector<std::unique_ptr<nn::Parameter>> owned;
  nn::ParamList list;
  Rng wrng(11);
  for (const Shape& sh : shapes) {
    std::string name = "p";
    name += std::to_string(owned.size());
    owned.push_back(
        std::make_unique<nn::Parameter>(name, sh.rows, sh.cols, sh.matrix));
    Matrix& w = owned.back()->value;
    for (int64_t i = 0; i < w.size(); ++i) w[i] = grid_value(wrng);
    list.push_back(owned.back().get());
  }
  Rng grng(12);
  for (int step = 0; step < 8; ++step) {
    for (nn::Parameter* p : list)
      for (int64_t i = 0; i < p->grad.size(); ++i)
        p->grad[i] = grid_value(grng);
    opt.step(list);
  }
  uint32_t crc = fault::kCrc32Init;
  for (const nn::Parameter* p : list)
    crc = fault::crc32_update(
        crc, p->value.data(),
        static_cast<size_t>(p->value.size()) * sizeof(float));
  const int64_t bytes = opt.state_bytes();
  crc = fault::crc32_update(crc, &bytes, sizeof bytes);
  return fault::crc32_final(crc);
}

}  // namespace

TEST(PrecisionLadder, GoldenFingerprintAtEveryThreadCount) {
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    core::set_thread_count(threads);
    EXPECT_EQ(ladder_fingerprint(optim::MomentPrecision::kFp32), 0x51ca96aau);
    EXPECT_EQ(ladder_fingerprint(optim::MomentPrecision::kBf16), 0x96349379u);
    EXPECT_EQ(ladder_fingerprint(optim::MomentPrecision::kInt8), 0xed0ff9d7u);
  }
  core::set_thread_count(0);
}

}  // namespace apollo
