// apollo_train — the end-to-end training CLI.
//
// Pre-trains a LLaMA-proxy (or custom-shaped) model on the synthetic corpus
// or any text file, with any optimizer in the registry, optional INT8
// weight quantization, checkpoint save/load and CSV curve logging. With
// --ranks N it forks N data-parallel workers under the src/dist supervisor
// and survives rank loss (docs/DISTRIBUTED.md).
//
//   $ apollo_train --optimizer apollo-mini --model 130m --steps 500
//   $ apollo_train --optimizer apollo --rank 16 --data book.txt
//         --steps 2000 --csv curve.csv --save model.ckpt
//   $ apollo_train --ranks 4 --ckpt-dir ckpts --steps 400
//   $ apollo_train --list-optimizers
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/factory.h"
#include "core/quantized_weights.h"
#include "data/corpus.h"
#include "data/text_corpus.h"
#include "dist/world.h"
#include "fault/fault_injection.h"
#include "nn/llama.h"
#include "obs/csv_sink.h"
#include "obs/telemetry.h"
#include "train/checkpoint.h"
#include "train/schedule.h"
#include "train/trainer.h"

#include "args.h"

using namespace apollo;

namespace {

void usage() {
  std::printf(
      "apollo_train — memory-efficient LLM pre-training\n\n"
      "  --optimizer NAME    (default apollo; --list-optimizers for all)\n"
      "  --model SIZE        60m|130m|350m|1b|7b proxy (default 130m)\n"
      "  --hidden/--layers/--heads/--inter/--vocab/--seq  custom shape\n"
      "  --rank N            projection rank (default hidden/4)\n"
      "  --scale F           APOLLO/GaLore alpha (default per method)\n"
      "  --update-freq N     projector refresh period T (default 200)\n"
      "  --lr F              (default per method)\n"
      "  --steps N --batch N --grad-accum N   (default 400 / 4 / 1)\n"
      "  --weight-decay F    decoupled weight decay (default 0)\n"
      "  --data PATH         byte-level text file (default: synthetic C4)\n"
      "  --quantize-weights  INT8 weight store (Q- variants; also via\n"
      "                      APOLLO_QUANT_WEIGHTS=1)\n"
      "  --fused-update      apply optimizer updates inside backward and\n"
      "                      free each gradient immediately (bit-identical\n"
      "                      trajectory; also via APOLLO_FUSED_UPDATE=1)\n"
      "  --eval-every N      validation cadence (default steps/10)\n"
      "  --csv PATH          write the eval curve as CSV\n"
      "  --save PATH         write a checkpoint after training\n"
      "  --load PATH         initialize weights from a checkpoint\n"
      "  --seed N            master seed (default 42)\n"
      "\nDistributed data parallelism (docs/DISTRIBUTED.md):\n"
      "  --ranks N           fork N data-parallel workers with ZeRO-1\n"
      "                      optimizer-state sharding; the loss/grad-norm\n"
      "                      trajectory is bit-identical to --grad-accum N\n"
      "                      at the same --batch (also APOLLO_RANKS)\n"
      "  --dist-timeout-ms N heartbeat-stall / drain-grace timeout, default\n"
      "                      30000 (also APOLLO_DIST_TIMEOUT_MS)\n"
      "  --on-rank-fail P    respawn|shrink — restart a lost world at full\n"
      "                      width or one rank narrower (default respawn)\n"
      "  --max-restarts N    world restarts before giving up (default 3)\n"
      "\nFault tolerance (docs/RESILIENCE.md):\n"
      "  --ckpt-dir DIR      rotating crash-consistent checkpoints +\n"
      "                      auto-resume from the newest good one\n"
      "  --ckpt-every N      checkpoint period in steps (default 50)\n"
      "  --ckpt-keep K       checkpoints retained (default 3)\n"
      "  --no-resume         disable auto-resume scanning of --ckpt-dir\n"
      "  --watchdog          divergence watchdog: rollback + LR backoff on\n"
      "                      NaN/Inf or loss spikes (needs --ckpt-dir)\n"
      "  --spike-factor F    spike threshold vs running median (default 10)\n"
      "  --max-retries N     rollback budget before escalation (default 3)\n"
      "  --lr-backoff F      LR multiplier per rollback (default 0.5)\n"
      "\n  APOLLO_FAULTS=\"nan_grad@40;crash@120:2\" plants deterministic\n"
      "  faults (crash/hang/nan_grad/torn_write, optionally scoped to one\n"
      "  rank with :R) for recovery testing — see docs/RESILIENCE.md.\n");
}

// Env-var twin of --quantize-weights (docs/ENVVARS.md), mirroring the
// APOLLO_FUSED_UPDATE convention: any value other than empty/"0" enables.
bool quant_weights_env_enabled() {
  const char* e = std::getenv("APOLLO_QUANT_WEIGHTS");
  return e != nullptr && e[0] != '\0' && e[0] != '0';
}

nn::LlamaConfig model_config(const tools::Args& args) {
  const std::string size = args.get("model", "130m");
  nn::LlamaConfig cfg = nn::llama_130m_proxy();
  if (size == "60m") cfg = nn::llama_60m_proxy();
  else if (size == "350m") cfg = nn::llama_350m_proxy();
  else if (size == "1b") cfg = nn::llama_1b_proxy();
  else if (size == "7b") cfg = nn::llama_7b_proxy();
  cfg.hidden = static_cast<int>(args.get_int("hidden", cfg.hidden));
  cfg.n_layers = static_cast<int>(args.get_int("layers", cfg.n_layers));
  cfg.n_heads = static_cast<int>(args.get_int("heads", cfg.n_heads));
  cfg.intermediate = static_cast<int>(args.get_int("inter", cfg.intermediate));
  cfg.vocab = static_cast<int>(args.get_int("vocab", cfg.vocab));
  cfg.seq_len = static_cast<int>(args.get_int("seq", cfg.seq_len));
  return cfg;
}

// One full training job. In distributed mode this runs inside each forked
// worker (comm != nullptr): the model and optimizer are built post-fork so
// the supervisor process stays tiny, and only rank 0 writes the CSV curve
// and the final --save checkpoint.
int run_training(const tools::Args& args, dist::Communicator* comm) {
  const uint64_t seed = static_cast<uint64_t>(args.get_int("seed", 42));
  nn::LlamaConfig cfg = model_config(args);

  // Data source.
  std::unique_ptr<data::TokenSource> source;
  const std::string data_path = args.get("data", "");
  if (!data_path.empty()) {
    std::string err;
    auto text = data::TextCorpus::from_file(data_path, &err);
    if (!text) {
      std::fprintf(stderr, "error: --data %s: %s\n", data_path.c_str(),
                   err.c_str());
      return 1;
    }
    std::printf("data: %s (%zu bytes, byte-level vocab 256)\n",
                data_path.c_str(), text->size_bytes());
    cfg.vocab = 256;
    source = std::make_unique<data::TextCorpus>(std::move(*text));
  } else {
    data::CorpusConfig ccfg;
    ccfg.vocab = cfg.vocab;
    source = std::make_unique<data::SyntheticCorpus>(ccfg);
    std::printf("data: synthetic corpus (vocab %d)\n", cfg.vocab);
  }

  // Optimizer.
  const std::string opt_name = args.get("optimizer", "apollo");
  core::FactoryOptions fo;
  fo.rank = args.get_int("rank", std::max(1, cfg.hidden / 4));
  fo.scale = static_cast<float>(args.get_double("scale", -1.0));
  fo.update_freq = static_cast<int>(args.get_int("update-freq", 200));
  fo.seed = seed * 7919 + 13;
  fo.weight_decay =
      static_cast<float>(args.get_double("weight-decay", 0.0));
  auto opt = core::make_optimizer(opt_name, fo);
  if (!opt) {
    std::fprintf(stderr, "error: unknown optimizer '%s' "
                 "(--list-optimizers)\n", opt_name.c_str());
    return 1;
  }

  train::TrainConfig tc;
  tc.steps = static_cast<int>(args.get_int("steps", 400));
  tc.batch = static_cast<int>(args.get_int("batch", 4));
  tc.grad_accum = static_cast<int>(args.get_int("grad-accum", 1));
  tc.fused_update = args.has("fused-update");
  tc.lr = static_cast<float>(
      args.get_double("lr", core::default_lr(opt_name)));
  tc.eval_every =
      static_cast<int>(args.get_int("eval-every", tc.steps / 10));
  tc.data_seed = seed;
  tc.resilience.ckpt_dir = args.get("ckpt-dir", "");
  tc.resilience.ckpt_every =
      static_cast<int>(args.get_int("ckpt-every", 50));
  tc.resilience.ckpt_keep = static_cast<int>(args.get_int("ckpt-keep", 3));
  tc.resilience.auto_resume = !args.has("no-resume");
  tc.resilience.watchdog = args.has("watchdog");
  tc.resilience.wd.spike_factor = args.get_double("spike-factor", 10.0);
  tc.resilience.wd.max_retries =
      static_cast<int>(args.get_int("max-retries", 3));
  tc.resilience.wd.lr_backoff =
      static_cast<float>(args.get_double("lr-backoff", 0.5));
  if (tc.resilience.watchdog && tc.resilience.ckpt_dir.empty()) {
    std::fprintf(stderr,
                 "error: --watchdog needs --ckpt-dir (rollback target)\n");
    return 1;
  }

  nn::LlamaModel model(cfg, seed);
  std::printf("model: hidden %d, layers %d, heads %d, seq %d — %lld params\n",
              cfg.hidden, cfg.n_layers, cfg.n_heads, cfg.seq_len,
              static_cast<long long>(model.param_count()));

  const std::string load_path = args.get("load", "");
  std::string save_path = args.get("save", "");
  std::string csv_path = args.get("csv", "");
  const bool quantize =
      args.has("quantize-weights") || quant_weights_env_enabled();
  for (const auto& flag : args.unknown())
    std::fprintf(stderr, "warning: unrecognized flag %s\n", flag.c_str());
  if (comm != nullptr && comm->rank() != 0) {
    // Ranks hold bit-identical weights, so one writer is enough — and safe:
    // N ranks racing on the same output path would tear it.
    save_path.clear();
    csv_path.clear();
  }
  if (!load_path.empty()) {
    auto r = train::load_checkpoint(load_path, model, opt.get());
    if (!r.ok) {
      std::fprintf(stderr, "error: %s\n", r.error.c_str());
      return 1;
    }
    std::printf("loaded checkpoint %s (step %lld)%s\n", load_path.c_str(),
                static_cast<long long>(r.step),
                r.optimizer_state_restored ? " with optimizer state" : "");
  }

  std::unique_ptr<core::QuantizedWeightStore> qstore;
  if (quantize) {
    qstore = std::make_unique<core::QuantizedWeightStore>(model.parameters(),
                                                          seed ^ 0x51u);
    std::printf("weights: INT8 group-128 store (%lld bytes persistent)\n",
                static_cast<long long>(qstore->weight_bytes()));
  }

  if (comm != nullptr)
    std::printf("training: %s, lr %g, %d steps x (batch %d x %d ranks)\n\n",
                opt->name().c_str(), tc.lr, tc.steps, tc.batch,
                comm->world());
  else
    std::printf("training: %s, lr %g, %d steps x (batch %d x accum %d)\n\n",
                opt->name().c_str(), tc.lr, tc.steps, tc.batch,
                tc.grad_accum);

  train::Trainer trainer(model, *opt, *source, tc);
  if (qstore) trainer.set_quantized_weights(qstore.get());
  if (comm != nullptr) trainer.set_communicator(comm);
  auto result = trainer.run();

  obs::CsvSink csv(csv_path, {"step", "val_loss", "ppl"});
  for (const auto& pt : result.curve) {
    std::printf("step %6d   val loss %.4f   ppl %8.2f\n", pt.step,
                pt.val_loss, pt.perplexity);
    csv.row({static_cast<double>(pt.step), pt.val_loss, pt.perplexity});
  }
  if (result.resumed_from_step > 0)
    std::printf("resumed from step %lld\n",
                static_cast<long long>(result.resumed_from_step));
  if (result.corrupt_checkpoints_skipped > 0)
    std::printf("corrupt checkpoints skipped: %d\n",
                result.corrupt_checkpoints_skipped);
  if (result.rollbacks > 0)
    std::printf("watchdog rollbacks: %d\n", result.rollbacks);
  if (result.diverged) {
    std::fprintf(stderr, "error: training diverged — %s\n",
                 result.divergence_diagnostics.c_str());
    return 3;
  }
  std::printf("\nfinal perplexity: %.2f\n", result.final_perplexity);
  std::printf("optimizer state:  %.1f KiB (%s%s)\n",
              static_cast<double>(result.optimizer_state_bytes) / 1024.0,
              opt->name().c_str(),
              comm != nullptr ? ", this rank's ZeRO-1 shard" : "");
  std::printf("peak activations: %.1f MiB\n",
              static_cast<double>(result.peak_activation_bytes) /
                  (1024.0 * 1024.0));

  if (!save_path.empty()) {
    auto r = train::save_checkpoint(save_path, model, tc.steps, opt.get());
    if (!r.ok) {
      std::fprintf(stderr, "error: %s\n", r.error.c_str());
      return 1;
    }
    std::printf("saved checkpoint to %s%s\n", save_path.c_str(),
                r.optimizer_state_restored ? " (with optimizer state)" : "");
  }
  return 0;
}

// Takes the getenv() result rather than the name so every APOLLO_* read is
// a literal getenv("...") site the docdrift analyzer can see.
long env_long(const char* e, long dflt) {
  return e != nullptr && e[0] != '\0' ? std::strtol(e, nullptr, 10) : dflt;
}

}  // namespace

int main(int argc, char** argv) {
  tools::Args args(argc, argv);
  if (args.has("help")) {
    usage();
    return 0;
  }
  if (args.has("list-optimizers")) {
    for (const auto& n : core::known_optimizers()) std::printf("%s\n", n.c_str());
    return 0;
  }

  // Distributed launch. Flags override the environment (APOLLO_RANKS &
  // friends let a CI matrix flip modes without editing command lines).
  const long ranks =
      args.get_int("ranks", env_long(std::getenv("APOLLO_RANKS"), 1));
  const int timeout_ms = static_cast<int>(args.get_int(
      "dist-timeout-ms",
      env_long(std::getenv("APOLLO_DIST_TIMEOUT_MS"), 30000)));
  const std::string on_fail = args.get("on-rank-fail", "respawn");
  const int max_restarts =
      static_cast<int>(args.get_int("max-restarts", 3));

  if (ranks < 1 || ranks > dist::kMaxRanks) {
    std::fprintf(stderr, "error: --ranks must be in [1, %d]\n",
                 dist::kMaxRanks);
    return 1;
  }
  if (ranks == 1) return run_training(args, nullptr);

  if (args.get_int("grad-accum", 1) > 1) {
    std::fprintf(stderr,
                 "error: --ranks replaces --grad-accum (the world is the "
                 "accumulation; use --ranks N --grad-accum 1)\n");
    return 1;
  }
  if (args.has("watchdog")) {
    std::fprintf(stderr,
                 "error: --watchdog is incompatible with --ranks (rank loss "
                 "recovery already rewinds to the newest checkpoint)\n");
    return 1;
  }
  if (args.has("quantize-weights") || quant_weights_env_enabled()) {
    std::fprintf(stderr,
                 "error: --quantize-weights / APOLLO_QUANT_WEIGHTS is "
                 "incompatible with --ranks\n");
    return 1;
  }
  if (on_fail != "respawn" && on_fail != "shrink") {
    std::fprintf(stderr,
                 "error: --on-rank-fail must be respawn or shrink\n");
    return 1;
  }

  dist::WorldConfig wc;
  wc.ranks = static_cast<int>(ranks);
  wc.timeout_ms = timeout_ms;
  wc.shrink_on_failure = on_fail == "shrink";
  wc.max_restarts = max_restarts;
  // The fault harness's planted crash is a *simulated* rank loss — the
  // whole point is recovering from it.
  wc.restartable_exit_codes = {fault::kCrashExitCode};

  const char* metrics = std::getenv("APOLLO_METRICS");
  const std::string metrics_path = metrics != nullptr ? metrics : "";

  dist::World world(wc);
  return world.run([&](dist::Communicator& comm) {
    // Rank-scoped faults need to know which rank this worker is; after a
    // recovery restart the spec is disarmed so the replanted fault doesn't
    // re-kill the replacement world every epoch.
    fault::set_rank(comm.rank());
    if (comm.epoch() > 0) fault::set_spec("");
    if (!metrics_path.empty())
      obs::telemetry_set_path(
          (metrics_path + ".rank" + std::to_string(comm.rank())).c_str());
    if (comm.rank() != 0) {
      // One console: rank 0 speaks on stdout. stderr stays shared — worker
      // warnings and supervisor logs interleave there.
      std::FILE* sink = freopen("/dev/null", "w", stdout);
      (void)sink;
    }
    const int rc = run_training(args, &comm);
    // Workers leave via _Exit (no atexit hooks), so the telemetry file is
    // finalized by hand before the wrapper exits.
    obs::Telemetry::instance().finalize();
    std::fflush(stdout);
    std::fflush(stderr);
    return rc;
  });
}
