// The model-shape flags apollo-train, apollo-eval and apollo-serve share:
// --model picks a LLaMA proxy size, and --hidden/--layers/--heads/--inter/
// --vocab/--seq override single fields of it.
#pragma once

#include <cstdio>
#include <string>

#include "args.h"
#include "nn/llama.h"

namespace apollo::tools {

// Fills `cfg` from the flags (default size 130m). An unknown size, or a
// shape LlamaModel cannot build (nn::config_error), is a usage error: it is
// reported on stderr and the function returns false.
inline bool model_config(const Args& args, nn::LlamaConfig& cfg) {
  const std::string size = args.get("model", "130m");
  if (size == "60m") cfg = nn::llama_60m_proxy();
  else if (size == "130m") cfg = nn::llama_130m_proxy();
  else if (size == "350m") cfg = nn::llama_350m_proxy();
  else if (size == "1b") cfg = nn::llama_1b_proxy();
  else if (size == "7b") cfg = nn::llama_7b_proxy();
  else {
    std::fprintf(stderr,
                 "error: --model must be one of 60m, 130m, 350m, 1b, 7b\n");
    return false;
  }
  cfg.hidden = args.get_int("hidden", cfg.hidden);
  cfg.n_layers = args.get_int("layers", cfg.n_layers);
  cfg.n_heads = args.get_int("heads", cfg.n_heads);
  cfg.intermediate = args.get_int("inter", cfg.intermediate);
  cfg.vocab = args.get_int("vocab", cfg.vocab);
  cfg.seq_len = args.get_int("seq", cfg.seq_len);
  const std::string bad = nn::config_error(cfg);
  if (bad.empty()) return true;
  std::fprintf(stderr, "error: model shape: %s\n", bad.c_str());
  return false;
}

}  // namespace apollo::tools
