#include "core/factory.h"

#include "core/apollo.h"
#include "core/structured_adamw.h"
#include "optim/adafactor.h"
#include "optim/adam_mini.h"
#include "optim/adamw.h"
#include "optim/galore.h"
#include "optim/lowrank.h"
#include "optim/sgd.h"

namespace apollo::core {

const std::vector<std::string>& known_optimizers() {
  static const std::vector<std::string> names = {
      "adamw",       "adamw-bf16",  "sgd",         "sgd-momentum", "adam-mini",
      "adam8bit",    "adafactor",   "galore",       "galore-rp",
      "galore8bit",  "golore",      "fira",        "flora",        "lora",
      "relora",      "dora",        "lowrank",      "apollo",
      "apollo-svd",  "apollo-mini", "structured-channel",
      "structured-tensor",
  };
  return names;
}

// Defaults are tuned for the factory's consumers (the optimizer-contract
// tests and the CLI tools), where runs are a few hundred steps: a normalized
// Adam-style update moves ≈ lr per element per step, so lr·steps must cover
// unit-scale distances. The paper benches do NOT use these — exp_common.h
// pins the paper's own per-method learning rates (3e-3 AdamW at nano scale,
// the untuned 1e-2 the projected family inherits from GaLore).
float default_lr(const std::string& name) {
  if (name.rfind("sgd", 0) == 0) return 5e-2f;
  if (name.rfind("galore", 0) == 0 || name == "golore" || name == "fira" ||
      name == "flora")
    return 1e-2f;  // paired with the α = 4 fallback scale below
  if (name.rfind("apollo", 0) == 0) return 2e-2f;
  return 1e-2f;  // AdamW family, adapters, structured variants
}

std::unique_ptr<optim::Optimizer> make_optimizer(const std::string& name,
                                                 const FactoryOptions& o) {
  optim::AdamHyper hyper;
  hyper.weight_decay = o.weight_decay;

  if (name == "adamw") return std::make_unique<optim::AdamW>(hyper);
  if (name == "adamw-bf16")
    return std::make_unique<optim::AdamW>(hyper,
                                          optim::MomentPrecision::kBf16);
  if (name == "sgd") return std::make_unique<optim::Sgd>(0.f, o.weight_decay);
  if (name == "sgd-momentum")
    return std::make_unique<optim::Sgd>(o.momentum, o.weight_decay);
  if (name == "adam-mini") return std::make_unique<optim::AdamMini>(hyper);
  if (name == "adam8bit")
    return std::make_unique<optim::AdamW>(hyper,
                                          optim::MomentPrecision::kInt8);
  if (name == "adafactor") {
    optim::AdafactorConfig cfg;
    cfg.weight_decay = o.weight_decay;
    return std::make_unique<optim::Adafactor>(cfg);
  }

  if (name.rfind("galore", 0) == 0 || name == "golore" || name == "fira" ||
      name == "flora") {
    optim::GaloreConfig cfg;
    cfg.rank = o.rank;
    // Fallback α = 4, GaLore's fine-tuning scale — right for the short
    // (~10²-step) runs the factory serves. The paper's pre-training α = 0.25
    // amortizes over 10⁴ steps and is passed explicitly by the benches.
    cfg.scale = o.scale >= 0.f ? o.scale : 4.f;
    cfg.update_freq = o.update_freq;
    cfg.seed = o.seed;
    cfg.hyper = hyper;
    if (name == "galore") return optim::GaLore::galore(cfg);
    if (name == "galore-rp") return optim::GaLore::galore_rp(cfg);
    if (name == "galore8bit") return optim::GaLore::galore_8bit(cfg);
    if (name == "fira") return optim::GaLore::fira(cfg);
    if (name == "golore")
      // Switch to random projections after one SVD refresh period.
      return optim::GaLore::golore(cfg, o.update_freq);
    return optim::GaLore::flora(cfg);
  }

  if (name == "lora" || name == "relora" || name == "dora" ||
      name == "lowrank") {
    optim::AdapterConfig cfg;
    cfg.rank = o.rank;
    cfg.seed = o.seed;
    cfg.hyper = hyper;
    cfg.kind = name == "lora"     ? optim::AdapterKind::kLora
               : name == "relora" ? optim::AdapterKind::kRelora
               : name == "dora"   ? optim::AdapterKind::kDora
                                  : optim::AdapterKind::kFactorized;
    return std::make_unique<optim::LowRankAdapter>(cfg);
  }

  if (name.rfind("apollo", 0) == 0) {
    ApolloConfig cfg;
    cfg.rank = o.rank;
    cfg.update_freq = o.update_freq;
    cfg.seed = o.seed;
    cfg.hyper = hyper;
    if (o.scale >= 0.f) cfg.scale = o.scale;
    if (name == "apollo-mini") {
      ApolloConfig mini = ApolloConfig::mini();
      mini.update_freq = o.update_freq;
      mini.seed = o.seed;
      mini.hyper = hyper;
      if (o.scale >= 0.f) mini.scale = o.scale;
      return std::make_unique<Apollo>(mini, "APOLLO-Mini");
    }
    if (name == "apollo-svd") return Apollo::with_svd(cfg);
    return Apollo::standard(cfg);
  }

  if (name.rfind("structured-", 0) == 0) {
    StructuredAdamWConfig cfg;
    cfg.hyper = hyper;
    cfg.granularity = name == "structured-tensor"
                          ? ScalingGranularity::kTensor
                          : ScalingGranularity::kChannel;
    return std::make_unique<StructuredAdamW>(cfg);
  }

  return nullptr;
}

}  // namespace apollo::core
