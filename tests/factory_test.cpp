// Optimizer factory + gradient-accumulation + apollo-train CSV curve tests.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/factory.h"
#include "data/corpus.h"
#include "optim/adamw.h"
#include "nn/llama.h"
#include "tensor/ops.h"
#include "train/trainer.h"

namespace apollo {
namespace {

TEST(Factory, EveryKnownNameConstructs) {
  for (const auto& name : core::known_optimizers()) {
    auto opt = core::make_optimizer(name);
    ASSERT_NE(opt, nullptr) << name;
    EXPECT_FALSE(opt->name().empty());
    EXPECT_GT(core::default_lr(name), 0.f);
  }
}

TEST(Factory, UnknownNameReturnsNull) {
  EXPECT_EQ(core::make_optimizer("adamw2"), nullptr);
  EXPECT_EQ(core::make_optimizer(""), nullptr);
}

TEST(Factory, EveryOptimizerTakesAStep) {
  nn::Parameter p("w", 8, 32);
  Rng rng(1);
  p.value.fill_gaussian(rng, 0.f, 0.5f);
  for (const auto& name : core::known_optimizers()) {
    core::FactoryOptions fo;
    fo.rank = 4;
    auto opt = core::make_optimizer(name, fo);
    ASSERT_NE(opt, nullptr);
    opt->set_lr(1e-3f);
    p.grad.fill_gaussian(rng, 0.f, 0.1f);
    Matrix before = p.value;
    opt->step({&p});
    // SGD-family and friends must all move the weight.
    EXPECT_GT(max_abs_diff(before, p.value), 0.f) << name;
    for (int64_t i = 0; i < p.value.size(); ++i)
      EXPECT_TRUE(std::isfinite(p.value[i])) << name;
  }
}

TEST(Factory, OptionsAreHonored) {
  core::FactoryOptions fo;
  fo.rank = 2;
  auto apollo_opt = core::make_optimizer("apollo", fo);
  nn::Parameter p("w", 8, 32);
  Rng rng(2);
  p.value.fill_gaussian(rng, 0.f, 0.5f);
  p.grad.fill_gaussian(rng, 0.f, 0.1f);
  apollo_opt->set_lr(1e-3f);
  apollo_opt->step({&p});
  // APOLLO rank 2 → 2·32·2 floats + seed + limiter.
  EXPECT_EQ(apollo_opt->state_bytes(), 2 * 32 * 2 * 4 + 8 + 4);
}

TEST(GradAccum, MatchesBiggerBatchInExpectation) {
  // 2 micro-batches of 2 with mean-seeded backward ≈ one batch of 4 drawn
  // from the same stream: exact equality holds because the loader is shared
  // and the loss is a mean over micro-batches.
  auto run = [](int batch, int accum) {
    nn::LlamaConfig cfg;
    cfg.vocab = 64; cfg.hidden = 16; cfg.intermediate = 40;
    cfg.n_heads = 2; cfg.n_layers = 1; cfg.seq_len = 8;
    nn::LlamaModel model(cfg, 3);
    data::CorpusConfig ccfg;
    ccfg.vocab = 64;
    data::SyntheticCorpus corpus(ccfg);
    optim::AdamW opt;
    train::TrainConfig tc;
    tc.steps = 20;
    tc.batch = batch;
    tc.grad_accum = accum;
    tc.lr = 1e-3f;
    tc.record_step_losses = true;
    train::Trainer t(model, opt, corpus, tc);
    return t.run();
  };
  auto accum_run = run(2, 2);
  auto batch_run = run(4, 1);
  // Same total tokens per step, same stream order → same losses (up to
  // attention-batch boundary effects, which don't exist for independent
  // sequences) and near-identical training trajectory.
  ASSERT_EQ(accum_run.step_losses.size(), batch_run.step_losses.size());
  for (size_t i = 0; i < accum_run.step_losses.size(); ++i)
    EXPECT_NEAR(accum_run.step_losses[i], batch_run.step_losses[i], 2e-3f);
}

TEST(GradAccum, AccumReducesPeakActivations) {
  auto run = [](int batch, int accum) {
    nn::LlamaConfig cfg;
    cfg.vocab = 64; cfg.hidden = 16; cfg.intermediate = 40;
    cfg.n_heads = 2; cfg.n_layers = 1; cfg.seq_len = 8;
    nn::LlamaModel model(cfg, 3);
    data::CorpusConfig ccfg;
    ccfg.vocab = 64;
    data::SyntheticCorpus corpus(ccfg);
    optim::AdamW opt;
    train::TrainConfig tc;
    tc.steps = 2;
    tc.batch = batch;
    tc.grad_accum = accum;
    train::Trainer t(model, opt, corpus, tc);
    return t.run().peak_activation_bytes;
  };
  EXPECT_LT(run(1, 8), run(8, 1));
}

#ifdef APOLLO_TRAIN_BIN

constexpr const char* kTinyRun =
    " --hidden 32 --layers 1 --heads 2 --inter 88 --vocab 64 --seq 16"
    " --optimizer adamw --batch 1";

int run_train(const std::string& dir, const std::string& args) {
  const std::string cmd = "cd " + dir + " && " + APOLLO_TRAIN_BIN + kTinyRun +
                          args + " > out.txt 2>&1";
  const int rc = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << cmd;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(ApolloTrainCsv, HeaderAndOneRowPerEvalPoint) {
  const std::string dir = std::string(::testing::TempDir()) + "csv_curve";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(run_train(dir, " --steps 6 --eval-every 2 --csv c.csv"), 0);
  // Eval points after steps 2 and 4, then the final one after step 6.
  std::ifstream in(dir + "/c.csv");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "step,val_loss,ppl");
  for (size_t i = 1; i < lines.size(); ++i) {
    std::istringstream row(lines[i]);
    std::string step, val_loss, ppl;
    ASSERT_TRUE(std::getline(row, step, ',') &&
                std::getline(row, val_loss, ',') && std::getline(row, ppl))
        << lines[i];
    EXPECT_EQ(step, std::to_string(2 * i));
    // %.6g: six significant digits of each value.
    EXPECT_NEAR(std::stod(ppl), std::exp(std::stod(val_loss)),
                1e-4 * std::stod(ppl))
        << lines[i];
  }
  std::filesystem::remove_all(dir);
}

TEST(ApolloTrainCsv, UnopenablePathFailsBeforeAnyStep) {
  const std::string dir = std::string(::testing::TempDir()) + "csv_bad";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_EQ(run_train(dir, " --steps 3 --eval-every 0"
                           " --csv missing/c.csv --save final.ckpt"),
            1);
  std::ifstream log(dir + "/out.txt");
  std::stringstream out;
  out << log.rdbuf();
  EXPECT_NE(out.str().find("error: --csv missing/c.csv"), std::string::npos)
      << out.str();
  EXPECT_EQ(out.str().find("training:"), std::string::npos) << out.str();
  EXPECT_FALSE(std::filesystem::exists(dir + "/final.ckpt"));
  std::filesystem::remove_all(dir);
}

#endif  // APOLLO_TRAIN_BIN

}  // namespace
}  // namespace apollo
