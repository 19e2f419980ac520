// apollo_serve — batched inference server over a trained checkpoint.
//
//   $ apollo-serve --load model.ckpt --model 60m
//   $ curl -N -d '{"prompt":"The ","max_tokens":32}' 127.0.0.1:8080/v1/generate
//
// Serves POST /v1/generate as a chunked JSONL token stream, with
// continuous batching across concurrent requests (docs/SERVING.md).
// GET /healthz and /metrics report state; POST /admin/shutdown drains.
#include <cstdint>
#include <cstdio>
#include <string>

#include "nn/llama.h"
#include "serve/engine.h"
#include "serve/kv_cache.h"
#include "train/checkpoint.h"

#include "args.h"
#include "model_args.h"

using namespace apollo;

int main(int argc, char** argv) {
  tools::Args args(argc, argv);
  if (args.has("help")) {
    std::printf(
        "apollo_serve — batched inference server\n\n"
        "  --load PATH         checkpoint to serve (omit: random weights)\n"
        "  --model SIZE        architecture (default 130m)\n"
        "  --hidden/--layers/--heads/--inter/--vocab/--seq  custom shape\n"
        "  --port N            listen port, 0 = ephemeral (default 8080)\n"
        "  --port-file PATH    write the bound port (for --port 0)\n"
        "  --max-batch N       decode lanes (default 4)\n"
        "  --max-queue N       queued requests (default 64)\n"
        "  --kv-budget BYTES   cap lanes to fit this KV arena size "
        "(0 = off)\n"
        "  --deadline-ms N     default per-request deadline (0 = none)\n");
    return 0;
  }

  nn::LlamaConfig cfg;
  if (!tools::model_config(args, cfg)) return 1;
  const std::string load_path = args.get("load", "");
  const std::string port_file = args.get("port-file", "");
  if (!load_path.empty() && !args.has("vocab")) cfg.vocab = 256;

  serve::EngineConfig ecfg;
  ecfg.port = args.get_int("port", 8080);
  ecfg.max_batch = args.get_int("max-batch", 4);
  ecfg.max_queue = args.get_int("max-queue", 64);
  ecfg.default_deadline_ms = args.get_long("deadline-ms", 0);
  const int64_t kv_budget = args.get_long("kv-budget", 0);
  if (!args.error().empty()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return 1;
  }
  if (ecfg.max_batch < 1 || ecfg.max_queue < 1) {
    std::fprintf(stderr, "error: --max-batch and --max-queue must be >= 1\n");
    return 1;
  }
  if (kv_budget > 0) {
    const int64_t per_slot = serve::KvArena::bytes_per_slot(
        cfg.n_layers, cfg.seq_len, cfg.hidden);
    const int64_t fit = kv_budget / per_slot;
    if (fit < 1) {
      std::fprintf(stderr,
                   "error: KV budget %lld B below one slot (%lld B)\n",
                   static_cast<long long>(kv_budget),
                   static_cast<long long>(per_slot));
      return 1;
    }
    if (fit < ecfg.max_batch) {
      std::fprintf(stderr,
                   "note: KV budget caps lanes %d -> %lld\n",
                   ecfg.max_batch, static_cast<long long>(fit));
      ecfg.max_batch = static_cast<int>(fit);
    }
  }

  nn::LlamaModel model(cfg, 0);
  if (!load_path.empty()) {
    auto r = train::load_checkpoint(load_path, model);
    if (!r.ok) {
      std::fprintf(stderr, "error: %s\n", r.error.c_str());
      return 1;
    }
    std::printf("loaded %s (step %lld)\n", load_path.c_str(),
                static_cast<long long>(r.step));
  } else {
    std::printf("no --load: serving randomly initialized weights\n");
  }
  for (const auto& flag : args.unknown())
    std::fprintf(stderr, "warning: unrecognized flag %s\n", flag.c_str());

  serve::ServeEngine engine(model, ecfg);
  std::printf(
      "listening on 127.0.0.1:%d  (lanes %d, queue %d, kv %lld B)\n",
      engine.port(), ecfg.max_batch, ecfg.max_queue,
      static_cast<long long>(engine.decoder().kv_bytes()));
  std::fflush(stdout);

  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f, "%d\n", engine.port());
      std::fclose(f);
    }
  }

  engine.run();
  std::printf("drained, exiting\n");
  return 0;
}
