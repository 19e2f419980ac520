// String-keyed optimizer factory — the single place that maps method names
// ("adamw", "galore", "apollo-mini", …) to configured optimizers. Used by
// the apollo_train CLI and anywhere a method is chosen at runtime. Lives in
// core (not optim) because it constructs the APOLLO optimizers too.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "optim/optimizer.h"

namespace apollo::core {

struct FactoryOptions {
  int64_t rank = 4;
  float scale = -1.f;      // <0 ⇒ method default: GaLore family 4,
                           // APOLLO 1, APOLLO-Mini √128
  int update_freq = 200;   // projector refresh period T
  uint64_t seed = 4242;
  float weight_decay = 0.f;
  float momentum = 0.9f;   // SGD only
};

// Known method names, in display order.
const std::vector<std::string>& known_optimizers();

// Returns nullptr for unknown names.
std::unique_ptr<optim::Optimizer> make_optimizer(const std::string& name,
                                                 const FactoryOptions& opts = {});

// Default learning rate per method for the factory's short runs (CLI tools
// and tests): AdamW family, adapters and GaLore family 1e-2, APOLLO 2e-2,
// SGD 5e-2. The reproduction benches take theirs from bench/exp_common.h.
float default_lr(const std::string& name);

}  // namespace apollo::core
