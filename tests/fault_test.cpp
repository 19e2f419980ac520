// Fault-injection harness: spec grammar, fire-once semantics, in-process
// NaN-gradient recovery, and the end-to-end kill-and-resume contract — a
// subprocess run with planted nan_grad + crash faults must auto-recover and
// land within 5% of the fault-free final perplexity.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/apollo.h"
#include "core/factory.h"
#include "core/quantized_weights.h"
#include "data/corpus.h"
#include "fault/fault_injection.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"
#include "train/checkpoint.h"
#include "train/ckpt_io.h"
#include "train/resilience.h"
#include "train/trainer.h"

namespace apollo {
namespace {

// Disarms the global injector when a test exits, pass or fail.
struct FaultGuard {
  explicit FaultGuard(const char* spec) { fault::set_spec(spec); }
  ~FaultGuard() { fault::set_spec(""); }
};

// Lines of `text` that contain `needle`.
int count_lines_with(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  std::string line;
  int n = 0;
  while (std::getline(in, line))
    if (line.find(needle) != std::string::npos) ++n;
  return n;
}

TEST(FaultSpec, ParsesEveryKind) {
  fault::Plan plan;
  std::string err;
  ASSERT_TRUE(fault::parse_spec(
      "nan_grad@40; crash@120 ;crash_save@7;trunc_ckpt@80;bitflip_opt@0;",
      &plan, &err))
      << err;
  ASSERT_EQ(plan.events.size(), 5u);
  EXPECT_EQ(plan.events[0].kind, fault::Kind::kNanGrad);
  EXPECT_EQ(plan.events[0].step, 40);
  EXPECT_EQ(plan.events[1].kind, fault::Kind::kCrash);
  EXPECT_EQ(plan.events[1].step, 120);
  EXPECT_EQ(plan.events[2].kind, fault::Kind::kCrashInSave);
  EXPECT_EQ(plan.events[3].kind, fault::Kind::kTruncCkpt);
  EXPECT_EQ(plan.events[4].kind, fault::Kind::kBitflipOpt);
  EXPECT_EQ(plan.events[4].step, 0);
}

TEST(FaultSpec, EmptySpecDisarms) {
  fault::Plan plan;
  ASSERT_TRUE(fault::parse_spec("", &plan, nullptr));
  EXPECT_TRUE(plan.events.empty());
  ASSERT_TRUE(fault::parse_spec(" ; ; ", &plan, nullptr));
  EXPECT_TRUE(plan.events.empty());
}

TEST(FaultSpec, RejectsMalformedEvents) {
  fault::Plan plan;
  std::string err;
  EXPECT_FALSE(fault::parse_spec("explode@40", &plan, &err));
  EXPECT_NE(err.find("unknown fault kind"), std::string::npos) << err;
  EXPECT_FALSE(fault::parse_spec("nan_grad", &plan, &err));
  EXPECT_NE(err.find("missing '@step'"), std::string::npos) << err;
  EXPECT_FALSE(fault::parse_spec("nan_grad@", &plan, &err));
  EXPECT_NE(err.find("no step"), std::string::npos) << err;
  EXPECT_FALSE(fault::parse_spec("nan_grad@-3", &plan, &err));
  EXPECT_NE(err.find("not a non-negative integer"), std::string::npos) << err;
  EXPECT_FALSE(fault::parse_spec("nan_grad@12x", &plan, &err));
  EXPECT_FALSE(fault::parse_spec("crash@99999999999999999999", &plan, &err));
}

TEST(FaultInjector, ExactStepEventsFireOnce) {
  FaultGuard guard("nan_grad@5;nan_grad@9");
  ASSERT_TRUE(fault::enabled());
  EXPECT_FALSE(fault::take_at(fault::Kind::kNanGrad, 4));
  EXPECT_TRUE(fault::take_at(fault::Kind::kNanGrad, 5));
  EXPECT_FALSE(fault::take_at(fault::Kind::kNanGrad, 5));  // consumed
  EXPECT_FALSE(fault::take_at(fault::Kind::kCrash, 9));    // wrong kind
  EXPECT_TRUE(fault::take_at(fault::Kind::kNanGrad, 9));
  EXPECT_FALSE(fault::enabled());  // all events consumed
}

TEST(FaultInjector, CheckpointEventsRipen) {
  FaultGuard guard("trunc_ckpt@25");
  // The checkpoint cadence may skip the exact step; the event fires at the
  // first save at-or-after it.
  EXPECT_FALSE(fault::take_at_or_after(fault::Kind::kTruncCkpt, 20));
  EXPECT_TRUE(fault::take_at_or_after(fault::Kind::kTruncCkpt, 30));
  EXPECT_FALSE(fault::take_at_or_after(fault::Kind::kTruncCkpt, 40));
}

// --- in-process recovery ----------------------------------------------------

nn::LlamaConfig tiny() {
  nn::LlamaConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.intermediate = 40;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.seq_len = 8;
  return cfg;
}

// A tiny model trained by APOLLO (rank 2, refresh every 4 steps), or by
// `opt` when given; its final weights go to `weights` when given.
train::TrainResult run_tiny(const std::string& ckpt_dir, int steps,
                            bool fused = false, bool quantized = false,
                            optim::Optimizer* opt = nullptr,
                            std::vector<Matrix>* weights = nullptr) {
  nn::LlamaModel model(tiny(), 3);
  data::CorpusConfig ccfg;
  ccfg.vocab = 64;
  data::SyntheticCorpus corpus(ccfg);
  core::ApolloConfig acfg;
  acfg.rank = 2;
  acfg.update_freq = 4;
  core::Apollo apollo(acfg);
  train::TrainConfig tc;
  tc.steps = steps;
  tc.batch = 2;
  tc.lr = 0.01f;
  tc.fused_update = fused;
  if (!ckpt_dir.empty()) {
    tc.resilience.ckpt_dir = ckpt_dir;
    tc.resilience.ckpt_every = 4;
    tc.resilience.ckpt_keep = 3;
    tc.resilience.watchdog = true;
  }
  std::optional<core::QuantizedWeightStore> qstore;
  if (quantized) qstore.emplace(model.parameters(), 17);
  train::Trainer t(model, opt != nullptr ? *opt : apollo, corpus, tc);
  if (qstore) t.set_quantized_weights(&*qstore);
  const train::TrainResult res = t.run();
  if (weights != nullptr)
    for (const nn::Parameter* p : model.parameters())
      weights->push_back(p->value);
  return res;
}

TEST(FaultInjector, NanGradRecoversOnQuantizedFusedPath) {
  // The fused path requantizes each leaf it steps inside backward, before
  // the step's gradient norm is known. The NaN slot is not stepped, so the
  // NaN never reaches the INT8 store's residuals; checkpoints carry fp32
  // weights only, and rollback re-absorbs them from zeroed residuals.
  const std::string dir =
      std::string(::testing::TempDir()) + "fault_nan_qfused_ckpts";
  std::filesystem::remove_all(dir);
  obs::Registry::instance().reset();
  FaultGuard guard("nan_grad@6");
  const auto res = run_tiny(dir, 12, /*fused=*/true, /*quantized=*/true);
  EXPECT_FALSE(res.diverged) << res.divergence_diagnostics;
  EXPECT_EQ(res.rollbacks, 1);
  EXPECT_TRUE(std::isfinite(res.final_perplexity));
  EXPECT_EQ(obs::Registry::instance().counter("fault.injected").value(), 1);
  obs::Registry::instance().reset();
  std::filesystem::remove_all(dir);
}

TEST(FaultInjector, EveryOptimizerRecoversFromOneNanOnBothDrivers) {
  // One NaN gradient costs exactly one rollback on either driver, and the
  // two drivers end on the same bits: the fused driver steps slots inside
  // backward, before the step's gradient norm exists, and the rollback
  // restores the optimizer state those steps advanced.
  const std::string dir =
      std::string(::testing::TempDir()) + "fault_nan_every_opt";
  core::FactoryOptions fo;
  fo.rank = 2;
  fo.update_freq = 4;
  obs::Registry& reg = obs::Registry::instance();
  for (const std::string& name : core::known_optimizers()) {
    std::vector<Matrix> weights[2];
    for (const bool fused : {false, true}) {
      SCOPED_TRACE(name + (fused ? " fused" : " classic"));
      std::filesystem::remove_all(dir);
      reg.reset();
      FaultGuard guard("nan_grad@6");
      auto opt = core::make_optimizer(name, fo);
      ASSERT_NE(opt, nullptr);
      const auto res = run_tiny(dir, 12, fused, /*quantized=*/false, opt.get(),
                                &weights[fused ? 1 : 0]);
      EXPECT_FALSE(res.diverged) << res.divergence_diagnostics;
      EXPECT_EQ(res.rollbacks, 1);
      EXPECT_TRUE(std::isfinite(res.final_perplexity));
      EXPECT_EQ(reg.counter("fault.injected").value(), 1);
      EXPECT_EQ(reg.counter("watchdog.rollbacks").value(), 1);
    }
    ASSERT_EQ(weights[0].size(), weights[1].size()) << name;
    for (size_t i = 0; i < weights[0].size(); ++i)
      EXPECT_TRUE(weights[0][i] == weights[1][i])
          << name << ": classic and fused part at parameter " << i;
  }
  reg.reset();
  std::filesystem::remove_all(dir);
}

// The rollback target of a resumed run is the checkpoint it resumed from:
// with a copy of ckpt_4 named ckpt_12 beside ckpt_8, the run resumes at 8
// (the copy is skipped) and a NaN at step 9 rolls back to 8, so the run ends
// on the bits of one resumed from ckpt_4 and ckpt_8 alone.
TEST(FaultInjector, RollbackTargetIsTheResumedCheckpoint) {
  namespace fs = std::filesystem;
  const std::string base = std::string(::testing::TempDir()) + "fault_target";
  const std::string clean = base + "/clean", renamed = base + "/renamed";
  fs::remove_all(base);
  run_tiny(clean, 8);
  fs::copy(clean, renamed);
  fs::copy_file(train::CheckpointRotator::path_for(renamed, 4),
                train::CheckpointRotator::path_for(renamed, 12));
  std::vector<Matrix> weights[2];
  for (int k = 0; k < 2; ++k) {
    FaultGuard guard("nan_grad@9");
    const auto res = run_tiny(k == 0 ? clean : renamed, 12, /*fused=*/false,
                              /*quantized=*/false, nullptr, &weights[k]);
    EXPECT_EQ(res.resumed_from_step, 8);
    EXPECT_EQ(res.rollbacks, 1);
    EXPECT_EQ(res.corrupt_checkpoints_skipped, k);
  }
  for (size_t i = 0; i < weights[0].size(); ++i)
    EXPECT_TRUE(weights[0][i] == weights[1][i]) << "parameter " << i;
  obs::Registry::instance().reset();
  fs::remove_all(base);
}

// A rollback is the resume scan bounded by the newest step the run saved:
// with the step-8 file's optimizer section bit-flipped, a NaN at step 10
// skips it and rolls back to step 4 instead of aborting.
TEST(FaultInjector, RollbackFallsBackPastACorruptNewestCheckpoint) {
  const std::string dir = std::string(::testing::TempDir()) + "fault_flip";
  std::filesystem::remove_all(dir);
  FaultGuard guard("bitflip_opt@8;nan_grad@10");
  const auto res = run_tiny(dir, 12);
  EXPECT_FALSE(res.diverged) << res.divergence_diagnostics;
  EXPECT_EQ(res.rollbacks, 1);
  EXPECT_EQ(res.corrupt_checkpoints_skipped, 1);
  EXPECT_TRUE(std::isfinite(res.final_perplexity));
  obs::Registry::instance().reset();
  std::filesystem::remove_all(dir);
}

// The escalation ladder with a one-rollback budget: each NaN planted at
// step 6 rolls back to step 4 until the budget is spent. APOLLO's limiter
// is tightened once for a final budget; AdamW has no limiter, so its second
// NaN aborts. The abort reloads step 4, and that reload counts in
// `rollbacks` like the others, so the count is one more than the
// "rolled back" lines.
TEST(FaultInjector, ExhaustedRetryBudgetTightensOnceThenAborts) {
  const std::string dir = std::string(::testing::TempDir()) + "fault_ladder";
  const struct {
    const char* opt;
    const char* spec;
    int rollbacks;
    int rolled_back_lines;
    int tightened;
    const char* diagnostics;
  } cases[] = {
      {"apollo", "nan_grad@6;nan_grad@6;nan_grad@6", 3, 2, 1,
       "diverged at step 6: non-finite gradient norm (nan); 3 rollback(s), "
       "lr scale 0.250000, last good checkpoint at step 4"},
      {"adamw", "nan_grad@6;nan_grad@6", 2, 1, 0,
       "diverged at step 6: non-finite gradient norm (nan); 2 rollback(s), "
       "lr scale 0.500000, last good checkpoint at step 4"},
  };
  core::FactoryOptions fo;
  fo.rank = 2;
  fo.update_freq = 4;
  obs::Registry& reg = obs::Registry::instance();
  for (const auto& c : cases) {
    SCOPED_TRACE(c.opt);
    std::filesystem::remove_all(dir);
    reg.reset();
    FaultGuard guard(c.spec);
    nn::LlamaModel model(tiny(), 3);
    data::CorpusConfig ccfg;
    ccfg.vocab = 64;
    const data::SyntheticCorpus corpus(ccfg);
    auto opt = core::make_optimizer(c.opt, fo);
    ASSERT_NE(opt, nullptr);
    train::TrainConfig tc;
    tc.steps = 10;
    tc.batch = 2;
    tc.resilience.ckpt_dir = dir;
    tc.resilience.ckpt_every = 4;
    tc.resilience.watchdog = true;
    tc.resilience.wd.max_retries = 1;
    ::testing::internal::CaptureStderr();
    const auto res = train::Trainer(model, *opt, corpus, tc).run();
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_TRUE(res.diverged);
    EXPECT_EQ(res.divergence_diagnostics, c.diagnostics);
    EXPECT_EQ(res.rollbacks, c.rollbacks);
    EXPECT_EQ(reg.counter("watchdog.rollbacks").value(), c.rollbacks);
    EXPECT_EQ(count_lines_with(log, "rolled back to step 4"),
              c.rolled_back_lines)
        << log;
    EXPECT_EQ(count_lines_with(log, "tightened norm-growth limiter"),
              c.tightened)
        << log;
    EXPECT_EQ(count_lines_with(log, "retry 1/1"), c.rolled_back_lines) << log;
    // The abort hands back the weights of the last good checkpoint.
    nn::LlamaModel step4(tiny(), 99);
    ASSERT_TRUE(train::load_checkpoint(
                    train::CheckpointRotator::path_for(dir, 4), step4)
                    .ok);
    const nn::ParamList got = model.parameters(), want = step4.parameters();
    for (size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(got[i]->value == want[i]->value) << got[i]->name;
  }
  reg.reset();
  std::filesystem::remove_all(dir);
}

// APOLLO stepped twice on the tiny model (so every projected slot holds a
// seed), re-seeded with `salt` unless it is negative; returns its state.
std::string apollo_state_reseeded(int64_t salt, int64_t* reseeded) {
  nn::LlamaModel model(tiny(), 3);
  core::ApolloConfig acfg;
  acfg.rank = 2;
  core::Apollo apollo(acfg);
  const nn::ParamList params = model.parameters();
  apollo.set_lr(1e-2f);
  for (uint64_t step = 0; step < 2; ++step) {
    Rng rng(70 + step);
    for (nn::Parameter* p : params) p->grad.fill_gaussian(rng, 0.f, 0.1f);
    apollo.step(params);
  }
  if (salt >= 0) *reseeded = apollo.reseed_projection(salt);
  train::OptimizerBlob blob;
  EXPECT_TRUE(train::capture_optimizer_blob(apollo, params, &blob));
  return std::string(blob.bytes.get(), blob.size);
}

// A rollback re-seeds APOLLO's projections from the old seeds and the
// rollback count: the retry explores new subspaces, and the same salt
// gives the same seeds, so a retried run stays deterministic.
TEST(FaultInjector, ReseedProjectionGivesNewDeterministicSeeds) {
  int64_t n1 = 0, n2 = 0, n3 = 0;
  const std::string before = apollo_state_reseeded(-1, nullptr);
  const std::string salt1 = apollo_state_reseeded(1, &n1);
  EXPECT_GT(n1, 0);
  EXPECT_EQ(apollo_state_reseeded(1, &n2), salt1);
  EXPECT_EQ(n2, n1);
  EXPECT_NE(salt1, before);
  const std::string salt2 = apollo_state_reseeded(2, &n3);
  EXPECT_NE(salt2, salt1);
  EXPECT_NE(salt2, before);
}

// The checkpoint faults fire in the first file a process commits at or
// after their step, a rank's optimizer shard included, and the shard
// reader catches each.
TEST(FaultInjector, CheckpointFaultsFireInAShard) {
  namespace fs = std::filesystem;
  const std::string dir = std::string(::testing::TempDir()) + "fault_shard";
  nn::LlamaModel model(tiny(), 3);
  core::Apollo apollo(core::ApolloConfig{});
  const nn::ParamList params = model.parameters();
  apollo.set_lr(1e-2f);
  Rng rng(71);
  for (nn::Parameter* p : params) p->grad.fill_gaussian(rng, 0.f, 0.1f);
  apollo.step(params);
  const struct {
    const char* spec;
    const char* why;
  } cases[] = {{"trunc_ckpt@3", "state blob length"},
               {"bitflip_opt@3", "CRC mismatch in state blob"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    fs::remove_all(dir);
    fs::create_directories(dir);
    FaultGuard guard(c.spec);
    std::string err;
    for (const int64_t step : {2, 4})
      ASSERT_TRUE(train::save_state_shard(train::shard_path_for(dir, step, 1, 2),
                                          apollo, params, step, 1, 2, &err))
          << err;
    EXPECT_FALSE(fault::enabled());
    EXPECT_TRUE(train::read_state_shard(train::shard_path_for(dir, 2, 1, 2), 2,
                                        1, 2, nullptr, nullptr, &err))
        << err;
    const std::string fired = train::shard_path_for(dir, 4, 1, 2);
    EXPECT_FALSE(
        train::read_state_shard(fired, 4, 1, 2, nullptr, nullptr, &err));
    EXPECT_EQ(err.rfind(fired + ": " + c.why, 0), 0u) << err;
  }
  fs::remove_all(dir);
}

// A run that does not resume never reads another run's checkpoints: the
// trainer refuses a directory that already holds some, before it trains.
TEST(FaultInjector, NoResumeRefusesADirectoryWithCheckpoints) {
  const std::string dir = std::string(::testing::TempDir()) + "fault_noresume";
  std::filesystem::remove_all(dir);
  run_tiny(dir, 8);
  const std::vector<int64_t> before = train::CheckpointRotator::list_steps(dir);
  ASSERT_FALSE(before.empty());
  nn::LlamaModel model(tiny(), 3);
  data::CorpusConfig ccfg;
  ccfg.vocab = 64;
  const data::SyntheticCorpus corpus(ccfg);
  core::Apollo apollo(core::ApolloConfig{});
  train::TrainConfig tc;
  tc.steps = 12;
  tc.batch = 2;
  tc.resilience.ckpt_dir = dir;
  tc.resilience.ckpt_every = 4;
  tc.resilience.auto_resume = false;
  tc.resilience.watchdog = true;
  const auto res = train::Trainer(model, apollo, corpus, tc).run();
  EXPECT_TRUE(res.diverged);
  EXPECT_NE(res.divergence_diagnostics.find("already holds checkpoints"),
            std::string::npos)
      << res.divergence_diagnostics;
  EXPECT_EQ(res.checkpoints_saved, 0);
  EXPECT_EQ(train::CheckpointRotator::list_steps(dir), before);
  std::filesystem::remove_all(dir);
}

TEST(FaultInjector, RolledBackStepLeavesNoTelemetry) {
  // APOLLO samples its scaling factors per slot inside the fused backward.
  // The rolled-back attempt at step 6 must not add its samples to the row
  // of the step that replaces it: every row has one step's sample count.
  const std::string dir =
      std::string(::testing::TempDir()) + "fault_nan_telemetry";
  const std::string metrics = dir + "/m.jsonl";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  obs::telemetry_set_path(metrics.c_str());
  {
    FaultGuard guard("nan_grad@6");
    const auto res = run_tiny(dir + "/ckpts", 12, /*fused=*/true);
    EXPECT_EQ(res.rollbacks, 1);
  }
  obs::telemetry_set_path("");  // writes the registry dump and closes
  std::ifstream in(metrics);
  std::set<std::string> counts;
  int rows = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("{\"step\":", 0) != 0) continue;
    ++rows;
    const size_t at = line.find("\"opt.s_n\":");
    ASSERT_NE(at, std::string::npos) << line;
    counts.insert(line.substr(at, line.find_first_of(",}", at) - at));
  }
  // Steps 5 and 6 are replayed after the rollback to step 4.
  EXPECT_EQ(rows, 14);
  EXPECT_EQ(counts.size(), 1u);
  std::filesystem::remove_all(dir);
}

// --- subprocess kill-and-resume --------------------------------------------

#ifdef APOLLO_TRAIN_BIN

constexpr const char* kShape =
    " --hidden 32 --layers 1 --heads 2 --inter 88 --vocab 64 --seq 16"
    " --optimizer apollo --rank 4 --batch 2 --eval-every 0 --steps 60";

int run_cmd(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << cmd;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

double final_ppl_from_csv(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::string line, last;
  while (std::getline(in, line))
    if (!line.empty()) last = line;
  // "step,val_loss,ppl" rows; the perplexity is the third field.
  const size_t c1 = last.find(','), c2 = last.find(',', c1 + 1);
  EXPECT_NE(c2, std::string::npos) << "bad csv row: " << last;
  return std::strtod(last.c_str() + c2 + 1, nullptr);
}

TEST(FaultInjector, KillAndResumeMatchesCleanPerplexity) {
  const std::string dir = std::string(::testing::TempDir()) + "fault_e2e";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string bin = APOLLO_TRAIN_BIN;
  const std::string cd = "cd " + dir + " && ";
  const std::string args = std::string(kShape) + " --seed 11";
  const std::string resilient =
      " --ckpt-dir ckpts --ckpt-every 10 --watchdog";

  // Fault-free baseline.
  ASSERT_EQ(run_cmd(cd + bin + args + " --csv clean.csv > clean.log 2>&1"),
            0);

  // Faulted run: a NaN gradient at step 20 (rollback + LR backoff), then a
  // simulated kill at step 40.
  ASSERT_EQ(run_cmd(cd + "APOLLO_FAULTS='nan_grad@20;crash@40' " + bin +
                    args + resilient +
                    " --csv faulted.csv > faulted.log 2>&1"),
            fault::kCrashExitCode);

  // Relaunch: auto-resume from the newest good checkpoint and finish.
  ASSERT_EQ(run_cmd(cd + bin + args + resilient +
                    " --csv resumed.csv > resumed.log 2>&1"),
            0);
  std::ifstream log(dir + "/resumed.log");
  std::stringstream ss;
  ss << log.rdbuf();
  EXPECT_NE(ss.str().find("resumed from step 40"), std::string::npos)
      << ss.str();

  const double clean = final_ppl_from_csv(dir + "/clean.csv");
  const double recovered = final_ppl_from_csv(dir + "/resumed.csv");
  ASSERT_GT(clean, 1.0);
  ASSERT_TRUE(std::isfinite(recovered));
  // Acceptance contract: recovery lands within 5% of the clean run.
  EXPECT_NEAR(recovered, clean, 0.05 * clean)
      << "clean " << clean << " vs recovered " << recovered;
  std::filesystem::remove_all(dir);
}

// The --no-resume repro: an 8-step run left ckpt_4 and ckpt_8, and a new
// --no-resume run with a NaN at step 2 rolled back to the other run's step
// 8. apollo-train now refuses the directory with one usage error, before
// it trains or forks a rank, and leaves the other run's files alone.
TEST(FaultInjector, NoResumeIntoAnotherRunsCheckpointsIsAUsageError) {
  const std::string dir = std::string(::testing::TempDir()) + "fault_e2e_nr";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string cd = "cd " + dir + " && ";
  const std::string args = std::string(APOLLO_TRAIN_BIN) +
                           " --model 60m --batch 2 --eval-every 0 --seed 1"
                           " --ckpt-dir D --ckpt-every 4";
  ASSERT_EQ(run_cmd(cd + args + " --steps 8 > first.log 2>&1"), 0);
  for (const char* ranks : {"", " --ranks 2"}) {
    SCOPED_TRACE(ranks);
    EXPECT_EQ(run_cmd(cd + "APOLLO_FAULTS=nan_grad@2 " + args + ranks +
                      " --steps 12 --no-resume --watchdog > second.log 2>&1"),
              1);
    std::ifstream in(dir + "/second.log");
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(),
              "error: --no-resume starts a new run, but --ckpt-dir D already "
              "holds checkpoints\n");
  }
  EXPECT_EQ(train::CheckpointRotator::list_steps(dir + "/D"),
            (std::vector<int64_t>{4, 8}));
  std::filesystem::remove_all(dir);
}

#endif  // APOLLO_TRAIN_BIN

}  // namespace
}  // namespace apollo
