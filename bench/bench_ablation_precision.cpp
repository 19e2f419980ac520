// State-precision ablation (extension experiment): identical training runs
// with the optimizer moments stored in fp32 / bf16 / int8 — AdamW at each
// rung of optim::AdamMoments' precision ladder, and the projected methods'
// auxiliary states (8-bit GaLore) — plus INT8 weights (Q-APOLLO),
// quantifying what each precision notch costs in perplexity and buys in
// bytes. The paper relies on bf16 states for its memory estimates and on
// 8-bit baselines in Table 3; this bench shows the full ladder on one
// controlled setup.
#include "core/quantized_weights.h"
#include "exp_common.h"

using namespace apollo;
using namespace apollo::bench;

int main() {
  obs::BenchReport::open("ablation_precision", quick_mode());
  const auto cfg = nn::llama_130m_proxy();
  const int nsteps = steps(350);
  std::printf("State-precision ablation — 130M proxy, %d steps\n", nsteps);
  print_rule(86);
  std::printf("%-26s %10s %16s\n", "Configuration", "final ppl",
              "state bytes");
  print_rule(86);

  Method adamw_bf16{"AdamW bf16", 3e-3f, [](int64_t, uint64_t) {
                      return std::make_unique<optim::AdamW>(
                          optim::AdamHyper{}, optim::MomentPrecision::kBf16);
                    }};
  struct Row {
    const char* label;
    Method method;
  };
  const Row rows[] = {
      {"AdamW fp32 states", m_adamw()},
      {"AdamW bf16 states", adamw_bf16},
      {"AdamW int8 states", m_adam8bit()},
      {"GaLore fp32 states", m_galore()},
      {"GaLore int8 states", m_galore_8bit()},
      {"APOLLO fp32 states", m_apollo()},
  };
  for (const auto& row : rows) {
    auto run = run_pretrain(row.method, cfg, nsteps);
    std::printf("%-26s %10.2f %16lld\n", row.label,
                run.result.final_perplexity,
                static_cast<long long>(run.state_bytes));
  }

  // INT8 *weights* on top of the most memory-frugal optimizer.
  {
    nn::LlamaModel model(cfg, 42);
    data::SyntheticCorpus corpus({});
    auto opt = m_apollo_mini().make(cfg.hidden / 4, 299);
    core::QuantizedWeightStore store(model.parameters(), 17);
    train::TrainConfig tc;
    tc.steps = nsteps;
    tc.batch = 4;
    tc.lr = 0.01f;
    train::Trainer t(model, *opt, corpus, tc);
    t.set_quantized_weights(&store);
    auto r = t.run();
    std::printf("%-26s %10.2f %16lld   (+ int8 weights: %lld B)\n",
                "Q-APOLLO-Mini", r.final_perplexity,
                static_cast<long long>(r.optimizer_state_bytes),
                static_cast<long long>(store.weight_bytes()));
  }
  print_rule(86);
  std::printf("(expected: bf16 ≈ fp32; int8 costs a small ppl premium at "
              "1/4 the bytes; APOLLO needs so little state that precision "
              "hardly matters)\n");
  return 0;
}
