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
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "core/quantized_weights.h"
#include "data/corpus.h"
#include "data/text_corpus.h"
#include "dist/world.h"
#include "fault/fault_injection.h"
#include "nn/llama.h"
#include "obs/telemetry.h"
#include "train/checkpoint.h"
#include "train/schedule.h"
#include "train/trainer.h"

#include "args.h"
#include "model_args.h"

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
      "  --quantize-weights  INT8 weight store (Q- variants)\n"
      "  --fused-update      apply optimizer updates inside backward and\n"
      "                      free each gradient immediately (bit-identical\n"
      "                      trajectory)\n"
      "  --eval-every N      validation cadence (default steps/10)\n"
      "  --csv PATH          write the eval curve as CSV\n"
      "  --save PATH         write a checkpoint after training (weights\n"
      "                      only under --ranks)\n"
      "  --load PATH         initialize weights from a checkpoint\n"
      "  --seed N            master seed (default 42)\n"
      "\nDistributed data parallelism (docs/DISTRIBUTED.md):\n"
      "  --ranks N           fork N data-parallel workers with ZeRO-1\n"
      "                      optimizer-state sharding; the loss/grad-norm\n"
      "                      trajectory is bit-identical to --grad-accum N\n"
      "                      at the same --batch\n"
      "  --dist-timeout-ms N heartbeat-stall / drain-grace timeout, default\n"
      "                      30000\n"
      "  --on-rank-fail P    respawn|shrink — restart a lost world at full\n"
      "                      width or one rank narrower (default respawn)\n"
      "  --max-restarts N    world restarts before giving up (default 3)\n"
      "\nFault tolerance (docs/RESILIENCE.md):\n"
      "  --ckpt-dir DIR      rotating crash-consistent checkpoints +\n"
      "                      auto-resume from the newest good one, at any\n"
      "                      --ranks width, whatever width wrote it\n"
      "  --ckpt-every N      checkpoint period in steps (default 50)\n"
      "  --ckpt-keep K       checkpoint steps retained, each with its\n"
      "                      shards of any width (default 3)\n"
      "  --no-resume         start a new run: --ckpt-dir must hold no\n"
      "                      checkpoints\n"
      "  --watchdog          divergence watchdog: rollback + LR backoff on\n"
      "                      NaN/Inf or loss spikes (needs --ckpt-dir; every\n"
      "                      rank rolls back together under --ranks)\n"
      "  --spike-factor F    spike threshold vs running median (default 10)\n"
      "  --max-retries N     rollback budget before escalation (default 3)\n"
      "  --lr-backoff F      LR multiplier per rollback (default 0.5)\n"
      "\n  APOLLO_FAULTS=\"nan_grad@40;crash@120:2\" plants deterministic\n"
      "  faults (crash/hang/nan_grad/torn_write, optionally scoped to one\n"
      "  rank with :R) for recovery testing — see docs/RESILIENCE.md.\n");
}

// Every option of a training job. main reads them all before it forks any
// worker, so a bad value is reported once, not once per rank.
struct RunOptions {
  uint64_t seed = 42;
  std::string data_path, opt_name, load_path, save_path, csv_path;
  bool quantize = false;
  core::FactoryOptions fo;
  train::TrainConfig tc;
};

// Reads every option of a training job into *out. A count below 1, or a
// synthetic corpus too small for its generator, is a usage error: it is
// reported on stderr and the function returns false.
bool read_options(const tools::Args& args, const nn::LlamaConfig& cfg,
                  RunOptions* out) {
  RunOptions& o = *out;
  o.seed = static_cast<uint64_t>(args.get_long("seed", 42));
  o.data_path = args.get("data", "");
  o.opt_name = args.get("optimizer", "apollo");
  o.fo.rank = args.get_int("rank", std::max(1, cfg.hidden / 4));
  o.fo.scale = static_cast<float>(args.get_double("scale", -1.0));
  o.fo.update_freq = args.get_int("update-freq", 200);
  o.fo.seed = o.seed * 7919 + 13;
  o.fo.weight_decay =
      static_cast<float>(args.get_double("weight-decay", 0.0));

  train::TrainConfig& tc = o.tc;
  tc.steps = args.get_int("steps", 400);
  tc.batch = args.get_int("batch", 4);
  tc.grad_accum = args.get_int("grad-accum", 1);
  tc.fused_update = args.has("fused-update");
  tc.lr = static_cast<float>(
      args.get_double("lr", core::default_lr(o.opt_name)));
  tc.eval_every = args.get_int("eval-every", tc.steps / 10);
  tc.data_seed = o.seed;
  tc.resilience.ckpt_dir = args.get("ckpt-dir", "");
  tc.resilience.ckpt_every = args.get_int("ckpt-every", 50);
  tc.resilience.ckpt_keep = args.get_int("ckpt-keep", 3);
  tc.resilience.auto_resume = !args.has("no-resume");
  tc.resilience.watchdog = args.has("watchdog");
  tc.resilience.wd.spike_factor = args.get_double("spike-factor", 10.0);
  tc.resilience.wd.max_retries = args.get_int("max-retries", 3);
  tc.resilience.wd.lr_backoff =
      static_cast<float>(args.get_double("lr-backoff", 0.5));

  o.load_path = args.get("load", "");
  o.save_path = args.get("save", "");
  o.csv_path = args.get("csv", "");
  o.quantize = args.has("quantize-weights");

  const std::pair<const char*, long long> counts[] = {
      {"steps", tc.steps}, {"batch", tc.batch}, {"rank", o.fo.rank},
      {"update-freq", o.fo.update_freq}};
  for (const auto& [flag, v] : counts)
    if (v < 1) {
      std::fprintf(stderr, "error: --%s must be at least 1, got %lld\n", flag,
                   v);
      return false;
    }
  if (o.data_path.empty() && cfg.vocab < 16) {
    std::fprintf(stderr,
                 "error: the synthetic corpus needs --vocab of at least 16, "
                 "got %d\n",
                 cfg.vocab);
    return false;
  }
  return true;
}

// Writes the --csv eval curve: a `step,val_loss,ppl` header, then one row
// of `%.6g` values per eval point. False, after printing the error, when
// the file cannot be written.
bool write_csv(const std::string& path,
               const std::vector<train::EvalPoint>& curve) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f != nullptr) {
    std::fputs("step,val_loss,ppl\n", f);
    for (const train::EvalPoint& pt : curve)
      std::fprintf(f, "%.6g,%.6g,%.6g\n", static_cast<double>(pt.step),
                   pt.val_loss, pt.perplexity);
    if (std::fclose(f) == 0) return true;
  }
  std::fprintf(stderr, "error: --csv %s: %s\n", path.c_str(),
               std::strerror(errno));
  return false;
}

// The --data source (byte-level text, which sets the vocab to 256, or the
// synthetic corpus). nullptr after printing the error when the file cannot
// be read.
std::unique_ptr<data::TokenSource> make_source(const RunOptions& o,
                                               nn::LlamaConfig& cfg) {
  if (o.data_path.empty()) {
    data::CorpusConfig ccfg;
    ccfg.vocab = cfg.vocab;
    std::printf("data: synthetic corpus (vocab %d)\n", cfg.vocab);
    return std::make_unique<data::SyntheticCorpus>(ccfg);
  }
  std::string err;
  auto text = data::TextCorpus::from_file(o.data_path, &err);
  if (!text) {
    std::fprintf(stderr, "error: --data %s: %s\n", o.data_path.c_str(),
                 err.c_str());
    return nullptr;
  }
  std::printf("data: %s (%zu bytes, byte-level vocab 256)\n",
              o.data_path.c_str(), text->size_bytes());
  cfg.vocab = 256;
  return std::make_unique<data::TextCorpus>(std::move(*text));
}

// One full training job of model shape `cfg` on `source`. In distributed
// mode this runs inside each forked worker (comm != nullptr): the model and
// optimizer are built post-fork so the supervisor process stays tiny (the
// source, built before the fork, is shared copy-on-write), and only rank 0
// writes the CSV curve and the final --save checkpoint.
int run_training(const RunOptions& o, const nn::LlamaConfig& cfg,
                 const data::TokenSource& source, dist::Communicator* comm) {
  const uint64_t seed = o.seed;
  // main checked the name against core::known_optimizers().
  auto opt = core::make_optimizer(o.opt_name, o.fo);
  const train::TrainConfig& tc = o.tc;

  nn::LlamaModel model(cfg, seed);
  std::printf("model: hidden %d, layers %d, heads %d, seq %d — %lld params\n",
              cfg.hidden, cfg.n_layers, cfg.n_heads, cfg.seq_len,
              static_cast<long long>(model.param_count()));

  const std::string& load_path = o.load_path;
  std::string save_path = o.save_path;
  std::string csv_path = o.csv_path;
  if (comm != nullptr && comm->rank() != 0) {
    // Ranks hold bit-identical weights, so one writer is enough — and safe:
    // N ranks racing on the same output path would tear it.
    save_path.clear();
    csv_path.clear();
  }
  if (!load_path.empty()) {
    // A rank keeps only its ZeRO-1 shard of the loaded optimizer state.
    if (comm != nullptr) opt->set_shard(comm->rank(), comm->world());
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
  if (o.quantize) {
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

  train::Trainer trainer(model, *opt, source, tc);
  if (qstore) trainer.set_quantized_weights(qstore.get());
  if (comm != nullptr) trainer.set_communicator(comm);
  auto result = trainer.run();

  for (const auto& pt : result.curve)
    std::printf("step %6d   val loss %.4f   ppl %8.2f\n", pt.step,
                pt.val_loss, pt.perplexity);
  // A curve that cannot be written fails the run, but only after --save:
  // the trained weights are worth more than the CSV.
  const bool csv_ok = csv_path.empty() || write_csv(csv_path, result.curve);
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
    // Under --ranks this rank holds one ZeRO-1 shard of the optimizer state,
    // not the whole: the file carries the weights alone.
    auto r = train::save_checkpoint(save_path, model, tc.steps,
                                    comm != nullptr ? nullptr : opt.get());
    if (!r.ok) {
      std::fprintf(stderr, "error: %s\n", r.error.c_str());
      return 1;
    }
    std::printf("saved checkpoint to %s%s\n", save_path.c_str(),
                comm != nullptr ? " (weights only; the optimizer state is "
                                  "the shard set in --ckpt-dir)"
                                : " (with optimizer state)");
  }
  return csv_ok ? 0 : 1;
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

  nn::LlamaConfig cfg;
  RunOptions opts;
  if (!tools::model_config(args, cfg) || !read_options(args, cfg, &opts))
    return 1;

  // Distributed launch.
  const int ranks = args.get_int("ranks", 1);
  const int timeout_ms = args.get_int("dist-timeout-ms", 30000);
  const std::string on_fail = args.get("on-rank-fail", "respawn");
  const int max_restarts = args.get_int("max-restarts", 3);

  if (!args.error().empty()) {
    std::fprintf(stderr, "error: %s\n", args.error().c_str());
    return 1;
  }
  if (ranks < 1 || ranks > dist::kMaxRanks) {
    std::fprintf(stderr, "error: --ranks must be in [1, %d]\n",
                 dist::kMaxRanks);
    return 1;
  }
  const train::ResilienceConfig& rc = opts.tc.resilience;
  if (rc.watchdog && rc.ckpt_dir.empty()) {
    std::fprintf(stderr,
                 "error: --watchdog needs --ckpt-dir (rollback target)\n");
    return 1;
  }
  // A new run never shares a directory with another run's checkpoints: its
  // rollbacks and later resumes would read them.
  if (!rc.auto_resume && !rc.ckpt_dir.empty() &&
      !train::CheckpointRotator::list_steps(rc.ckpt_dir).empty()) {
    std::fprintf(stderr,
                 "error: --no-resume starts a new run, but --ckpt-dir %s "
                 "already holds checkpoints\n",
                 rc.ckpt_dir.c_str());
    return 1;
  }
  for (const auto& flag : args.unknown())
    std::fprintf(stderr, "warning: unrecognized flag %s\n", flag.c_str());
  // A bad optimizer name or data file is reported here, once, rather than
  // by every rank after the fork.
  const std::vector<std::string>& names = core::known_optimizers();
  if (std::find(names.begin(), names.end(), opts.opt_name) == names.end()) {
    std::fprintf(stderr, "error: unknown optimizer '%s' "
                 "(--list-optimizers)\n", opts.opt_name.c_str());
    return 1;
  }
  // The curve is written after training: check its path before the first
  // step, so a bad path cannot cost a finished run.
  if (!opts.csv_path.empty() && !write_csv(opts.csv_path, {})) return 1;
  const std::unique_ptr<data::TokenSource> source = make_source(opts, cfg);
  if (!source) return 1;
  if (ranks == 1) return run_training(opts, cfg, *source, nullptr);

  if (opts.tc.grad_accum > 1) {
    std::fprintf(stderr,
                 "error: --ranks replaces --grad-accum (the world is the "
                 "accumulation; use --ranks N --grad-accum 1)\n");
    return 1;
  }
  if (opts.quantize) {
    std::fprintf(stderr,
                 "error: --quantize-weights is incompatible with --ranks\n");
    return 1;
  }
  if (on_fail != "respawn" && on_fail != "shrink") {
    std::fprintf(stderr,
                 "error: --on-rank-fail must be respawn or shrink\n");
    return 1;
  }

  dist::WorldConfig wc;
  wc.ranks = ranks;
  wc.timeout_ms = timeout_ms;
  wc.shrink_on_failure = on_fail == "shrink";
  wc.max_restarts = max_restarts;
  // The fault harness's planted kills, at a step and mid-save, are
  // *simulated* rank losses — the whole point is recovering from them.
  wc.restartable_exit_codes = {fault::kCrashExitCode,
                               fault::kCrashInSaveExitCode};

  const char* metrics = std::getenv("APOLLO_METRICS");
  const std::string metrics_path = metrics != nullptr ? metrics : "";

  dist::World world(wc);
  return world.run([&](dist::Communicator& comm) {
    // Rank-scoped faults need to know which rank this worker is; after a
    // recovery restart the spec is disarmed so the replanted fault doesn't
    // re-kill the replacement world every epoch.
    fault::set_rank(comm.rank());
    // A restarted world continues this run from its own checkpoints, even
    // under --no-resume.
    RunOptions run = opts;
    if (comm.epoch() > 0) {
      fault::set_spec("");
      run.tc.resilience.auto_resume = true;
    }
    if (!metrics_path.empty())
      obs::telemetry_set_path(
          (metrics_path + ".rank" + std::to_string(comm.rank())).c_str());
    if (comm.rank() != 0) {
      // One console: rank 0 speaks on stdout. stderr stays shared — worker
      // warnings and supervisor logs interleave there.
      std::FILE* sink = freopen("/dev/null", "w", stdout);
      (void)sink;
    }
    const int code = run_training(run, cfg, *source, &comm);
    // Workers leave via _Exit (no atexit hooks), so the telemetry file is
    // finalized by hand before the wrapper exits.
    obs::Telemetry::instance().finalize();
    std::fflush(stdout);
    std::fflush(stderr);
    return code;
  });
}
