// Teacher-forced scoring of a token sequence under a LlamaModel. Used by
// tests to check that a trained model assigns higher likelihood to its
// corpus than an untrained one. (Generation lives in serve/batcher.h.)
#pragma once

#include <cstdint>
#include <vector>

#include "nn/llama.h"

namespace apollo::nn {

// Mean log-likelihood (nats/token) the model assigns to `tokens` under
// teacher forcing — the per-sequence twin of validation_loss.
double sequence_log_likelihood(LlamaModel& model,
                               const std::vector<int32_t>& tokens);

}  // namespace apollo::nn
