// apollo_eval — evaluate and sample from a trained checkpoint.
//
//   $ apollo-eval --load model.ckpt --model 60m --data book.txt
//   $ apollo-eval --load model.ckpt --model 60m --generate 200
//         --prompt "The " --temperature 0.8
//
// Reports held-out perplexity (on the same data kind the model was trained
// with) and, for byte-level models, prints a sampled continuation.
#include <cmath>
#include <cstdio>
#include <memory>

#include "data/corpus.h"
#include "data/text_corpus.h"
#include "nn/llama.h"
#include "serve/batcher.h"
#include "train/checkpoint.h"
#include "train/trainer.h"

#include "args.h"
#include "model_args.h"

using namespace apollo;

int main(int argc, char** argv) {
  tools::Args args(argc, argv);
  const std::string load_path = args.get("load", "");
  if (args.has("help") || load_path.empty()) {
    std::printf(
        "apollo_eval — evaluate / sample a trained checkpoint\n\n"
        "  --load PATH         checkpoint (required)\n"
        "  --model SIZE        matching architecture (default 130m)\n"
        "  --hidden/--layers/--heads/--inter/--vocab/--seq  custom shape\n"
        "  --data PATH         text file for byte-level evaluation\n"
        "  --eval-batches N    validation batches (default 16)\n"
        "  --generate N        sample N tokens (byte-level models print "
        "text)\n"
        "  --prompt STR        generation prompt (default empty)\n"
        "  --temperature F     0 = greedy (default 0.8)\n"
        "  --top-k N           restrict sampling (default 40)\n");
    return load_path.empty() && !args.has("help") ? 1 : 0;
  }

  nn::LlamaConfig cfg;
  if (!tools::model_config(args, cfg)) return 1;
  const std::string data_path = args.get("data", "");
  if (!data_path.empty()) cfg.vocab = 256;
  const int eval_batches = args.get_int("eval-batches", 16);
  serve::GenParams gp;
  gp.max_tokens = args.get_int("generate", 0);
  gp.temperature = static_cast<float>(args.get_double("temperature", 0.8));
  gp.top_k = args.get_int("top-k", 40);
  if (!args.error().empty()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return 1;
  }

  nn::LlamaModel model(cfg, 0);
  auto r = train::load_checkpoint(load_path, model);
  if (!r.ok) {
    std::fprintf(stderr, "error: %s\n", r.error.c_str());
    return 1;
  }
  std::printf("loaded %s (step %lld, %lld params)\n", load_path.c_str(),
              static_cast<long long>(r.step),
              static_cast<long long>(model.param_count()));

  // Perplexity on held-out data.
  std::unique_ptr<data::TokenSource> source;
  std::unique_ptr<data::TextCorpus> text_keeper;
  if (!data_path.empty()) {
    std::string err;
    auto text = data::TextCorpus::from_file(data_path, &err);
    if (!text) {
      std::fprintf(stderr, "error: --data: %s\n", err.c_str());
      return 1;
    }
    text_keeper = std::make_unique<data::TextCorpus>(std::move(*text));
    source = std::make_unique<data::TextCorpus::Holdout>(
        text_keeper->holdout());
  } else {
    data::CorpusConfig ccfg;
    ccfg.vocab = cfg.vocab;
    source = std::make_unique<data::SyntheticCorpus>(ccfg);
  }
  auto vs = data::make_validation_set(*source, eval_batches, 4, cfg.seq_len,
                                      991);
  const double loss = train::validation_loss(model, vs);
  std::printf("held-out loss %.4f   perplexity %.2f\n", loss,
              std::exp(loss));

  // Optional sampling.
  const std::string prompt_str = args.get("prompt", "");
  for (const auto& flag : args.unknown())
    std::fprintf(stderr, "warning: unrecognized flag %s\n", flag.c_str());
  if (gp.max_tokens > 0) {
    std::vector<int32_t> prompt;
    for (char c : prompt_str)
      prompt.push_back(static_cast<int32_t>(static_cast<unsigned char>(c)) %
                       cfg.vocab);
    auto tokens = serve::generate(model, prompt, gp);
    if (cfg.vocab == 256) {
      std::printf("\n--- sample ---\n%s", prompt_str.c_str());
      for (int32_t t : tokens) {
        const char c = static_cast<char>(t);
        std::putchar((c >= 32 && c < 127) || c == '\n' ? c : '.');
      }
      std::printf("\n--- end ---\n");
    } else {
      std::printf("\nsampled token ids:");
      for (int32_t t : tokens) std::printf(" %d", t);
      std::printf("\n");
    }
  }
  return 0;
}
