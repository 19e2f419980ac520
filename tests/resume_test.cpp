// Exact-training-resume tests: save at step k, reload into fresh objects,
// continue — the trajectory must be bit-identical to an uninterrupted run.
// Plus the crash-mid-write contract: a process killed inside a checkpoint
// save must never corrupt a committed checkpoint (temp + atomic rename).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/apollo.h"
#include "core/factory.h"
#include "data/corpus.h"
#include "fault/fault_injection.h"
#include "optim/adamw.h"
#include "optim/lowrank.h"
#include "train/checkpoint.h"
#include "train/resilience.h"
#include "train/trainer.h"

namespace apollo {
namespace {

nn::LlamaConfig tiny() {
  nn::LlamaConfig c;
  c.vocab = 48;
  c.hidden = 16;
  c.intermediate = 40;
  c.n_heads = 2;
  c.n_layers = 1;
  c.seq_len = 8;
  return c;
}

// Pre-generates a fixed batch stream so both runs consume identical data.
struct FixedBatches {
  std::vector<std::vector<int32_t>> ids, targets;
  explicit FixedBatches(int n) {
    data::CorpusConfig ccfg;
    ccfg.vocab = 48;
    data::SyntheticCorpus corpus(ccfg);
    data::BatchLoader loader(corpus, 2, 8, 5);
    ids.resize(static_cast<size_t>(n));
    targets.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
      loader.next(ids[static_cast<size_t>(i)], targets[static_cast<size_t>(i)]);
  }
};

void train_steps(nn::LlamaModel& model, optim::Optimizer& opt,
                 const FixedBatches& data, int from, int to) {
  for (int s = from; s < to; ++s) {
    model.zero_grads();
    ag::Tape tape;
    tape.backward(model.loss(tape, data.ids[static_cast<size_t>(s)],
                             data.targets[static_cast<size_t>(s)]));
    opt.set_lr(1e-3f);
    opt.step(model.parameters());
  }
}

template <typename MakeOpt>
void check_exact_resume(MakeOpt make_opt) {
  const FixedBatches data(24);
  const std::string path =
      std::string(::testing::TempDir()) + "resume_test.ckpt";

  // Uninterrupted run: 24 steps.
  nn::LlamaModel ref(tiny(), 1);
  auto ref_opt = make_opt();
  train_steps(ref, *ref_opt, data, 0, 24);

  // Interrupted run: 10 steps, save, reload into fresh objects, 14 more.
  nn::LlamaModel first(tiny(), 1);
  auto first_opt = make_opt();
  train_steps(first, *first_opt, data, 0, 10);
  // The projector refresh period (update_freq) deliberately divides 24 but
  // not 10, so resumed runs cross a re-seed boundary.
  auto saved = train::save_checkpoint(path, first, 10, first_opt.get());
  ASSERT_TRUE(saved.ok) << saved.error;
  EXPECT_TRUE(saved.optimizer_state_restored);

  nn::LlamaModel resumed(tiny(), 2);  // different init — must be overwritten
  auto resumed_opt = make_opt();
  auto loaded = train::load_checkpoint(path, resumed, resumed_opt.get());
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.step, 10);
  EXPECT_TRUE(loaded.optimizer_state_restored);
  EXPECT_EQ(resumed_opt->state_bytes(), first_opt->state_bytes());
  train_steps(resumed, *resumed_opt, data, 10, 24);

  auto pr = ref.parameters();
  auto ps = resumed.parameters();
  for (size_t i = 0; i < pr.size(); ++i)
    EXPECT_TRUE(pr[i]->value == ps[i]->value)
        << "exact-resume mismatch at " << pr[i]->name;
  EXPECT_EQ(resumed_opt->state_bytes(), ref_opt->state_bytes());
}

// Every factory optimizer, with the refresh period (and GoLore's switch to
// random projections) at step 12, after the resume at step 10.
TEST(Resume, EveryOptimizerExact) {
  for (const std::string& name : core::known_optimizers()) {
    SCOPED_TRACE(name);
    check_exact_resume([&] {
      core::FactoryOptions fo;
      fo.update_freq = 12;
      return core::make_optimizer(name, fo);
    });
  }
}

// ReLoRA merging every 5 steps: the step-10 restart leaves the checkpoint
// an adapter with fresh factors and no factor moments, and steps 15 and 20
// restart again after the resume.
TEST(Resume, ReloraRestartsExact) {
  check_exact_resume([] {
    optim::AdapterConfig cfg;
    cfg.kind = optim::AdapterKind::kRelora;
    cfg.merge_freq = 5;
    return std::make_unique<optim::LowRankAdapter>(cfg);
  });
}

TEST(Resume, FusedSaveUnfusedLoadRoundTrip) {
  // A checkpoint written while training with the fused backward+optimizer
  // path must resume bit-exactly under the classic unfused step (and match
  // an uninterrupted unfused run): the streaming refactor may not leak into
  // the checkpoint byte format or the optimizer-state semantics.
  namespace fs = std::filesystem;
  const std::string dir =
      std::string(::testing::TempDir()) + "resume_fused_roundtrip";
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto make_opt = [] {
    core::ApolloConfig cfg;
    cfg.rank = 4;
    cfg.update_freq = 12;  // projector re-seed boundary crossed after resume
    cfg.seed = 9;
    return core::Apollo::standard(cfg);
  };
  data::CorpusConfig ccfg;
  ccfg.vocab = 48;
  data::SyntheticCorpus corpus(ccfg);
  train::TrainConfig base;
  base.steps = 24;
  base.batch = 2;
  base.lr = 1e-3f;
  base.eval_every = 0;

  // Uninterrupted unfused reference.
  nn::LlamaModel ref(tiny(), 1);
  auto ref_opt = make_opt();
  train::Trainer(ref, *ref_opt, corpus, base).run();

  // Phase 1: the same 24-step run under the fused path (identical cosine
  // schedule), committing rotating checkpoints at steps 10 and 20.
  nn::LlamaModel first(tiny(), 1);
  auto first_opt = make_opt();
  train::TrainConfig fused = base;
  fused.fused_update = true;
  fused.resilience.ckpt_dir = dir;
  fused.resilience.ckpt_every = 10;
  train::Trainer(first, *first_opt, corpus, fused).run();
  // Drop the step-20 commit so auto-resume picks the step-10 one and the
  // resumed run crosses the update_freq=12 re-seed boundary.
  fs::remove(train::CheckpointRotator::path_for(dir, 20));

  // Phase 2: fresh objects auto-resume from the fused step-10 checkpoint
  // and finish the remaining 14 steps with the classic unfused step.
  nn::LlamaModel resumed(tiny(), 2);  // different init — must be overwritten
  auto resumed_opt = make_opt();
  train::TrainConfig rest = base;
  rest.resilience.ckpt_dir = dir;
  auto result = train::Trainer(resumed, *resumed_opt, corpus, rest).run();
  EXPECT_EQ(result.resumed_from_step, 10);

  auto pr = ref.parameters();
  auto ps = resumed.parameters();
  for (size_t i = 0; i < pr.size(); ++i)
    EXPECT_TRUE(pr[i]->value == ps[i]->value)
        << "fused-save/unfused-load mismatch at " << pr[i]->name;
  fs::remove_all(dir);
}

#ifdef APOLLO_TRAIN_BIN

// Kills apollo-train halfway through writing a checkpoint's temp file, then
// verifies the committed checkpoints are untouched, the `.tmp` never shadows
// a real checkpoint, and a plain relaunch resumes from the last commit.
TEST(Resume, CrashMidWriteNeverCorruptsCommittedCheckpoints) {
  namespace fs = std::filesystem;
  const std::string dir =
      std::string(::testing::TempDir()) + "resume_crash_save";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string cmd_tail =
      " --hidden 32 --layers 1 --heads 2 --inter 88 --vocab 64 --seq 16"
      " --optimizer apollo --rank 4 --batch 2 --eval-every 0 --steps 40"
      " --seed 11 --ckpt-dir ckpts --ckpt-every 10";
  const std::string cd = "cd " + dir + " && ";
  const std::string base = std::string(APOLLO_TRAIN_BIN) + cmd_tail;

  int rc = std::system((cd + "APOLLO_FAULTS='crash_save@25' " + base +
                        " > crash.log 2>&1")
                           .c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  ASSERT_EQ(WEXITSTATUS(rc), fault::kCrashInSaveExitCode);

  // The kill hit the step-30 save: its temp file is on disk, no committed
  // ckpt_30 exists, and every earlier commit still passes full validation.
  const std::string ckpts = dir + "/ckpts";
  EXPECT_TRUE(fs::exists(ckpts + "/ckpt_30.aplo.tmp"));
  EXPECT_FALSE(fs::exists(ckpts + "/ckpt_30.aplo"));
  EXPECT_EQ(train::CheckpointRotator::list_steps(ckpts),
            (std::vector<int64_t>{10, 20}));
  nn::LlamaConfig shape;
  shape.vocab = 64;
  shape.hidden = 32;
  shape.intermediate = 88;
  shape.n_heads = 2;
  shape.n_layers = 1;
  shape.seq_len = 16;
  for (int64_t s : {10, 20}) {
    nn::LlamaModel probe(shape, 99);
    auto l = train::load_checkpoint(
        train::CheckpointRotator::path_for(ckpts, s), probe);
    EXPECT_TRUE(l.ok) << "step " << s << ": " << l.error;
  }

  // Relaunch without faults: auto-resume from step 20 and finish cleanly,
  // sweeping the stale temp file.
  rc = std::system((cd + base + " > resume.log 2>&1").c_str());
  ASSERT_TRUE(WIFEXITED(rc));
  EXPECT_EQ(WEXITSTATUS(rc), 0);
  EXPECT_FALSE(fs::exists(ckpts + "/ckpt_30.aplo.tmp"));
  std::ifstream log(dir + "/resume.log");
  std::stringstream ss;
  ss << log.rdbuf();
  EXPECT_NE(ss.str().find("resumed from step 20"), std::string::npos)
      << ss.str();
  fs::remove_all(dir);
}

#endif  // APOLLO_TRAIN_BIN

TEST(Resume, MismatchedOptimizerSkipsState) {
  const FixedBatches data(4);
  const std::string path =
      std::string(::testing::TempDir()) + "resume_mismatch.ckpt";
  nn::LlamaModel model(tiny(), 1);
  optim::AdamW adamw;
  train_steps(model, adamw, data, 0, 4);
  ASSERT_TRUE(train::save_checkpoint(path, model, 4, &adamw).ok);

  nn::LlamaModel other(tiny(), 2);
  auto apollo_opt = core::Apollo::standard({});
  auto r = train::load_checkpoint(path, other, apollo_opt.get());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_FALSE(r.optimizer_state_restored);  // name mismatch → weights only
  // Weights still restored correctly.
  EXPECT_TRUE(other.parameters()[0]->value == model.parameters()[0]->value);
}

}  // namespace
}  // namespace apollo
