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

#include "core/apollo.h"
#include "core/factory.h"
#include "core/quantized_weights.h"
#include "data/corpus.h"
#include "fault/fault_injection.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "train/trainer.h"

namespace apollo {
namespace {

// Disarms the global injector when a test exits, pass or fail.
struct FaultGuard {
  explicit FaultGuard(const char* spec) { fault::set_spec(spec); }
  ~FaultGuard() { fault::set_spec(""); }
};

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

// A tiny model trained by APOLLO (rank 2, refresh every 4 steps), or by
// `opt` when given.
train::TrainResult run_tiny(const std::string& ckpt_dir, int steps,
                            bool fused = false, bool quantized = false,
                            optim::Optimizer* opt = nullptr) {
  nn::LlamaConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.intermediate = 40;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.seq_len = 8;
  nn::LlamaModel model(cfg, 3);
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
  return t.run();
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
  // One NaN gradient costs exactly one rollback on either driver. The fused
  // driver steps slots inside backward, before the step's gradient norm
  // exists, so only the pipeline's per-slot guard keeps the NaN out of
  // optimizer state that the checkpoint does not carry.
  const std::string dir =
      std::string(::testing::TempDir()) + "fault_nan_every_opt";
  core::FactoryOptions fo;
  fo.rank = 2;
  fo.update_freq = 4;
  obs::Registry& reg = obs::Registry::instance();
  for (const std::string& name : core::known_optimizers()) {
    for (const bool fused : {false, true}) {
      SCOPED_TRACE(name + (fused ? " fused" : " classic"));
      std::filesystem::remove_all(dir);
      reg.reset();
      FaultGuard guard("nan_grad@6");
      auto opt = core::make_optimizer(name, fo);
      ASSERT_NE(opt, nullptr);
      const auto res = run_tiny(dir, 12, fused, /*quantized=*/false, opt.get());
      EXPECT_FALSE(res.diverged) << res.divergence_diagnostics;
      EXPECT_EQ(res.rollbacks, 1);
      EXPECT_TRUE(std::isfinite(res.final_perplexity));
      EXPECT_EQ(reg.counter("fault.injected").value(), 1);
      EXPECT_EQ(reg.counter("watchdog.rollbacks").value(), 1);
    }
  }
  reg.reset();
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

#endif  // APOLLO_TRAIN_BIN

}  // namespace
}  // namespace apollo
