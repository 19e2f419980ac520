// Fig. 3 reproduction: element-wise vs. channel-wise learning-rate
// adaptation, with and without the norm-growth limiter, on the 130M proxy.
//
// Expected shape (paper): channel-wise matches (slightly beats) element-wise
// AdamW; without the limiter the channel-wise curve shows an early loss
// spike that the limiter removes, and the limited variant ends best.
//
// The element-wise row is AdamW itself (per-element scaling G̃/G is Adam's
// update); the channel-wise rows are StructuredAdamW.
#include "core/structured_adamw.h"
#include "exp_common.h"

using namespace apollo;
using namespace apollo::bench;

namespace {

struct Variant {
  const char* label;
  bool element_wise;  // AdamW; otherwise channel-wise StructuredAdamW
  bool limiter;
};

std::unique_ptr<optim::Optimizer> make_optimizer(const Variant& v) {
  if (v.element_wise) return std::make_unique<optim::AdamW>();
  core::StructuredAdamWConfig cfg;
  cfg.granularity = ScalingGranularity::kChannel;
  cfg.use_norm_limiter = v.limiter;
  return std::make_unique<core::StructuredAdamW>(cfg);
}

train::TrainResult run_variant(const Variant& v, int nsteps, float lr) {
  nn::LlamaModel model(nn::llama_130m_proxy(), 42);
  data::SyntheticCorpus corpus({});
  const auto opt = make_optimizer(v);
  train::TrainConfig tc;
  tc.steps = nsteps;
  tc.batch = 4;
  tc.lr = lr;
  tc.record_step_losses = true;
  train::Trainer trainer(model, *opt, corpus, tc);
  return trainer.run();
}

// Coarser scaling shifts the effective step size, so each variant gets a
// tiny LR sweep (the paper likewise runs each method at its own setting).
train::TrainResult best_of_lrs(const Variant& v, int nsteps, float* best_lr) {
  train::TrainResult best;
  best.final_perplexity = 1e30;
  for (float lr : {3e-3f, 6e-3f}) {
    auto r = run_variant(v, nsteps, lr);
    if (r.final_perplexity < best.final_perplexity) {
      best = std::move(r);
      *best_lr = lr;
    }
  }
  return best;
}

float max_early_spike(const std::vector<float>& losses) {
  // Largest single-step loss *increase* within the first quarter of
  // training — the quantity the limiter is supposed to suppress.
  float spike = 0.f;
  for (size_t i = 1; i < losses.size() / 4; ++i)
    spike = std::max(spike, losses[i] - losses[i - 1]);
  return spike;
}

}  // namespace

int main() {
  obs::BenchReport::open("fig3_structured_lr", quick_mode());
  const int nsteps = steps(600);
  std::printf("Fig. 3 — structured learning-rate adaptation on the 130M "
              "proxy (%d steps)\n", nsteps);
  print_rule();

  const Variant variants[] = {
      {"Element-wise (AdamW)", /*element_wise=*/true, false},
      {"Channel-wise, no limiter", /*element_wise=*/false, false},
      {"Channel-wise + norm limiter", /*element_wise=*/false, true},
  };

  std::vector<train::TrainResult> results;
  std::printf("%-30s %8s %10s %14s %18s\n", "Variant", "best lr",
              "final ppl", "final loss", "max early spike");
  print_rule();
  for (const auto& v : variants) {
    float lr = 0;
    auto r = best_of_lrs(v, nsteps, &lr);
    std::printf("%-30s %8g %10.2f %14.4f %18.4f\n", v.label, lr,
                r.final_perplexity, r.step_losses.back(),
                max_early_spike(r.step_losses));
    results.push_back(std::move(r));
  }

  // Loss-curve series (paper plots loss vs. step), downsampled.
  print_rule();
  std::printf("Training-loss curves (every %d steps):\nstep", nsteps / 20);
  for (const auto& v : variants) std::printf(", %s", v.label);
  std::printf("\n");
  for (int i = 0; i < nsteps; i += std::max(1, nsteps / 20)) {
    std::printf("%4d", i);
    for (const auto& r : results)
      std::printf(", %.4f", r.step_losses[static_cast<size_t>(i)]);
    std::printf("\n");
  }
  return 0;
}
