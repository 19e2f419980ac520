// Shared infrastructure for the experiment benches (one binary per paper
// table/figure — see DESIGN.md §4).
//
// Every bench uses the same method registry so "APOLLO", "GaLore", "Fira"…
// mean exactly one configuration across all experiments. Per-method default
// learning rates follow the paper: AdamW-family tuned (3e-3 at nano scale),
// projected optimizers use the untuned lr = 0.01 the paper inherits from
// GaLore. Ranks are given as a fraction of the model's hidden size (the
// paper's default is 1/4).
//
// Honest-compute note: runs are scaled-down proxies (see DESIGN.md §2);
// set APOLLO_BENCH_QUICK=1 to divide step counts by 4 during development.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/apollo.h"
#include "core/structured_adamw.h"
#include "obs/bench_report.h"
#include "optim/adam_mini.h"
#include "optim/adamw.h"
#include "optim/galore.h"
#include "optim/lowrank.h"
#include "optim/sgd.h"
#include "train/trainer.h"

namespace apollo::bench {

inline bool quick_mode() {
  const char* env = std::getenv("APOLLO_BENCH_QUICK");
  return env != nullptr && env[0] == '1';
}

inline int steps(int full) { return quick_mode() ? std::max(20, full / 4) : full; }

// One registered optimization method: display name, learning rate, and a
// factory parameterized on the quarter-hidden rank of the target model.
struct Method {
  std::string name;
  float lr;
  std::function<std::unique_ptr<optim::Optimizer>(int64_t rank,
                                                  uint64_t seed)> make;
};

inline Method m_adamw() {
  return {"AdamW", 3e-3f, [](int64_t, uint64_t) {
            return std::make_unique<optim::AdamW>();
          }};
}
inline Method m_sgd() {
  return {"SGD-momentum", 0.05f, [](int64_t, uint64_t) {
            return std::make_unique<optim::Sgd>(0.9f);
          }};
}
inline Method m_adam_mini() {
  return {"Adam-mini", 3e-3f, [](int64_t, uint64_t) {
            return std::make_unique<optim::AdamMini>();
          }};
}
inline Method m_adam8bit() {
  return {"8-bit Adam", 3e-3f, [](int64_t, uint64_t) {
            return std::make_unique<optim::AdamW>(
                optim::AdamHyper{}, optim::MomentPrecision::kInt8);
          }};
}
inline optim::GaloreConfig galore_cfg(int64_t rank, uint64_t seed) {
  optim::GaloreConfig cfg;
  cfg.rank = rank;
  cfg.scale = 0.25f;
  // The paper refreshes every 200 of 10K+ steps; nano runs are a few
  // hundred steps, so keep a comparable steps/T ratio.
  cfg.update_freq = 50;
  cfg.seed = seed;
  return cfg;
}
inline Method m_galore() {
  return {"GaLore", 0.01f, [](int64_t r, uint64_t s) {
            return optim::GaLore::galore(galore_cfg(r, s));
          }};
}
inline Method m_galore_rp() {
  return {"GaLore w. RP", 0.01f, [](int64_t r, uint64_t s) {
            return optim::GaLore::galore_rp(galore_cfg(r, s));
          }};
}
inline Method m_galore_8bit() {
  return {"8-bit GaLore", 0.01f, [](int64_t r, uint64_t s) {
            return optim::GaLore::galore_8bit(galore_cfg(r, s));
          }};
}
inline Method m_fira() {
  return {"Fira", 0.01f, [](int64_t r, uint64_t s) {
            return optim::GaLore::fira(galore_cfg(r, s));
          }};
}
inline Method m_flora() {
  return {"Flora", 0.01f, [](int64_t r, uint64_t s) {
            return optim::GaLore::flora(galore_cfg(r, s));
          }};
}
inline core::ApolloConfig apollo_cfg(int64_t rank, uint64_t seed) {
  core::ApolloConfig cfg;
  cfg.rank = rank;
  cfg.seed = seed;
  cfg.update_freq = 50;  // scaled with nano step budgets, as for GaLore
  return cfg;
}
inline Method m_apollo() {
  return {"APOLLO", 0.01f, [](int64_t r, uint64_t s) {
            return core::Apollo::standard(apollo_cfg(r, s));
          }};
}
inline Method m_apollo_svd() {
  return {"APOLLO w. SVD", 0.01f, [](int64_t r, uint64_t s) {
            return core::Apollo::with_svd(apollo_cfg(r, s));
          }};
}
inline Method m_apollo_half() {
  // "APOLLO †": half the default rank (1/8 of hidden instead of 1/4).
  return {"APOLLO (half rank)", 0.01f, [](int64_t r, uint64_t s) {
            return core::Apollo::standard(
                apollo_cfg(std::max<int64_t>(1, r / 2), s));
          }};
}
inline Method m_apollo_mini() {
  // The paper's global α = √128 is tuned for real model widths (hidden
  // 512…4096, where √128 ≈ 0.25…0.5 of √hidden). At nano proxy widths the
  // width-faithful equivalent is α = √(hidden/4) = √rank_hint (verified by
  // the sweeps in EXPERIMENTS.md calibration note 3).
  return {"APOLLO-Mini", 0.01f, [](int64_t r, uint64_t s) {
            core::ApolloConfig cfg = core::ApolloConfig::mini();
            cfg.seed = s;
            cfg.update_freq = 50;
            cfg.scale = std::sqrt(static_cast<float>(r));
            return std::make_unique<core::Apollo>(cfg, "APOLLO-Mini");
          }};
}
inline Method m_lowrank() {
  return {"Low-Rank", 3e-3f, [](int64_t r, uint64_t s) {
            optim::AdapterConfig cfg;
            cfg.kind = optim::AdapterKind::kFactorized;
            cfg.rank = r;
            cfg.seed = s;
            return std::make_unique<optim::LowRankAdapter>(cfg);
          }};
}
inline Method m_lora() {
  return {"LoRA", 3e-3f, [](int64_t r, uint64_t s) {
            optim::AdapterConfig cfg;
            cfg.kind = optim::AdapterKind::kLora;
            cfg.rank = r;
            cfg.seed = s;
            return std::make_unique<optim::LowRankAdapter>(cfg);
          }};
}
inline Method m_relora() {
  return {"ReLoRA", 3e-3f, [](int64_t r, uint64_t s) {
            optim::AdapterConfig cfg;
            cfg.kind = optim::AdapterKind::kRelora;
            cfg.rank = r;
            cfg.merge_freq = 100;
            cfg.seed = s;
            return std::make_unique<optim::LowRankAdapter>(cfg);
          }};
}
inline Method m_dora() {
  return {"DoRA", 3e-3f, [](int64_t r, uint64_t s) {
            optim::AdapterConfig cfg;
            cfg.kind = optim::AdapterKind::kDora;
            cfg.rank = r;
            cfg.seed = s;
            return std::make_unique<optim::LowRankAdapter>(cfg);
          }};
}

// Model ladder entry for pre-training experiments.
struct SizePoint {
  const char* label;          // the paper-scale name this proxies
  nn::LlamaConfig config;
  int train_steps;            // full-mode step budget (ratio follows Tab. 8)
};

inline std::vector<SizePoint> table2_ladder() {
  return {
      {"60M", nn::llama_60m_proxy(), 250},
      {"130M", nn::llama_130m_proxy(), 350},
      {"350M", nn::llama_350m_proxy(), 500},
      {"1B", nn::llama_1b_proxy(), 700},
  };
}

// One pre-training run: fresh model, fixed seeds, per-method LR.
struct PretrainRun {
  train::TrainResult result;
  int64_t state_bytes = 0;
};

inline PretrainRun run_pretrain(const Method& method,
                                const nn::LlamaConfig& model_cfg,
                                int train_steps, int batch = 4,
                                int eval_every = 0, uint64_t seed = 42,
                                int64_t rank_override = -1) {
  nn::LlamaModel model(model_cfg, seed);
  data::SyntheticCorpus corpus({});
  const int64_t rank =
      rank_override > 0 ? rank_override : std::max(1, model_cfg.hidden / 4);
  auto opt = method.make(rank, seed * 7919 + 13);
  train::TrainConfig cfg;
  cfg.steps = train_steps;
  cfg.batch = batch;
  cfg.lr = method.lr;
  cfg.eval_every = eval_every;
  train::Trainer trainer(model, *opt, corpus, cfg);
  PretrainRun out;
  out.result = trainer.run();
  out.state_bytes = opt->state_bytes();
  // Every pre-training run lands as one row in the bench's JSON artifact
  // (when the bench opened one) — the machine-readable mirror of the text
  // tables, consumed by CI and the perf trajectory.
  if (obs::BenchReport* rep = obs::BenchReport::current()) {
    rep->add_row()
        .col_str("method", method.name)
        .col_int("steps", train_steps)
        .col_int("hidden", model_cfg.hidden)
        .col("lr", method.lr)
        .col("final_ppl", out.result.final_perplexity)
        .col_int("state_bytes", out.state_bytes)
        .col_int("peak_activation_bytes", out.result.peak_activation_bytes);
  }
  return out;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace apollo::bench
