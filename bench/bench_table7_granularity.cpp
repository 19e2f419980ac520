// Table 7 reproduction: ablation on the gradient-scaling-factor granularity
// (channel vs. tensor) for APOLLO and APOLLO w. SVD at rank hidden/4,
// against the AdamW / GaLore references.
//
// Expected shape (paper): at moderate rank the channel/tensor gap is small
// (≤ ~1 ppl) and both beat AdamW and GaLore — tensor-wise scaling is enough
// unless the rank is extreme (that case is Fig. 5d / APOLLO-Mini).
#include "exp_common.h"

using namespace apollo;
using namespace apollo::bench;

namespace {

Method apollo_with(ScalingGranularity g, optim::ProjKind proj) {
  Method m = m_apollo();
  m.make = [g, proj](int64_t r, uint64_t s) {
    core::ApolloConfig cfg;
    cfg.rank = r;
    cfg.seed = s;
    cfg.update_freq = 50;
    cfg.granularity = g;
    cfg.proj = proj;
    return std::make_unique<core::Apollo>(cfg, "APOLLO(custom)");
  };
  return m;
}

}  // namespace

int main() {
  obs::BenchReport::open("table7_granularity", quick_mode());
  std::printf("Table 7 — scaling-factor granularity ablation "
              "(rank = hidden/4)\n");
  print_rule(96);

  const SizePoint sizes[] = {
      {"60M", nn::llama_60m_proxy(), 250},
      {"130M", nn::llama_130m_proxy(), 350},
      {"350M", nn::llama_350m_proxy(), 500},
  };

  struct Row {
    std::string label;
    Method method;
  };
  const Row rows[] = {
      {"AdamW", m_adamw()},
      {"GaLore", m_galore()},
      {"APOLLO w. SVD / Channel",
       apollo_with(ScalingGranularity::kChannel, optim::ProjKind::kSvd)},
      {"APOLLO w. SVD / Tensor",
       apollo_with(ScalingGranularity::kTensor, optim::ProjKind::kSvd)},
      {"APOLLO / Channel",
       apollo_with(ScalingGranularity::kChannel,
                   optim::ProjKind::kRandom)},
      {"APOLLO / Tensor",
       apollo_with(ScalingGranularity::kTensor,
                   optim::ProjKind::kRandom)},
  };

  std::printf("%-26s", "Method / Granularity");
  for (const auto& s : sizes) std::printf(" %9s", s.label);
  std::printf("\n");
  print_rule(96);
  for (const auto& row : rows) {
    std::printf("%-26s", row.label.c_str());
    std::fflush(stdout);
    for (const auto& s : sizes) {
      auto run = run_pretrain(row.method, s.config, steps(s.train_steps));
      std::printf(" %9.2f", run.result.final_perplexity);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  print_rule(96);
  return 0;
}
