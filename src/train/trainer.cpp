#include "train/trainer.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <optional>

#include "autograd/tape.h"
#include "data/token_source.h"
#include "fault/fault_injection.h"
#include "nn/parameter.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/check.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "train/checkpoint.h"
#include "train/schedule.h"
#include "train/update_pipeline.h"

namespace apollo::train {

namespace {

// Fast-forwards a freshly (re)built loader so step `to_step` sees exactly
// the batches an uninterrupted run would have seen — resume and rollback
// replay the same deterministic data stream.
void skip_batches(data::BatchLoader& loader, int64_t n) {
  std::vector<int32_t> ids, targets;
  for (int64_t i = 0; i < n; ++i) loader.next(ids, targets);
}

}  // namespace

double validation_loss(nn::LlamaModel& model, const data::ValidationSet& vs) {
  APOLLO_CHECK(!vs.ids.empty());
  APOLLO_TRACE_SCOPE("validation_loss", "train");
  double total = 0;
  for (size_t i = 0; i < vs.ids.size(); ++i) {
    ag::Tape tape;
    ag::Var loss = model.loss(tape, vs.ids[i], vs.targets[i]);
    total += tape.value(loss)[0];
  }
  return total / static_cast<double>(vs.ids.size());
}

Trainer::Trainer(nn::LlamaModel& model, optim::Optimizer& opt,
                 const data::TokenSource& corpus, const TrainConfig& cfg)
    : model_(model), opt_(opt), corpus_(corpus), cfg_(cfg) {}

TrainResult Trainer::run() {
  TrainResult res;
  const ResilienceConfig& rc = cfg_.resilience;
  const bool rotating = !rc.ckpt_dir.empty();
  APOLLO_CHECK(!rc.watchdog || rotating);  // rollback needs a ckpt target

  // Data-parallel configuration. The INT8 weight store is incompatible with
  // ZeRO-1 sharding, and grad_accum is redundant — the world *is* the
  // accumulation (see trainer.h).
  const int world = comm_ != nullptr ? comm_->world() : 1;
  const int rank = comm_ != nullptr ? comm_->rank() : 0;
  if (comm_ != nullptr) {
    APOLLO_CHECK_MSG(cfg_.grad_accum <= 1,
                     "DDP replaces grad accumulation; use --ranks");
    APOLLO_CHECK_MSG(qstore_ == nullptr,
                     "quantized weights are incompatible with DDP");
  }
  opt_.set_shard(rank, world);
  const int accum = std::max(1, cfg_.grad_accum);

  // A run that does not resume is a new one: its rollbacks and later
  // resumes must never reach another run's checkpoints.
  if (rotating && !rc.auto_resume &&
      !CheckpointRotator::list_steps(rc.ckpt_dir).empty()) {
    res.diverged = true;
    res.divergence_diagnostics =
        "auto-resume is off but " + rc.ckpt_dir +
        " already holds checkpoints of another run";
    return res;
  }

  // Log prefix naming this process under DDP.
  const std::string who =
      comm_ != nullptr ? "rank " + std::to_string(rank) + " " : "";
  // The newest step this run saved or resumed from: resume and rollback
  // read nothing newer.
  int64_t last_good = -1;

  // The one checkpoint save, for periodic checkpoints and the watchdog's
  // baseline, at every width: a single process writes its optimizer state
  // into the weights file; in a world rank 0 writes the weights and every
  // rank its own shard.
  std::optional<CheckpointRotator> rotator;
  if (rotating) rotator.emplace(rc.ckpt_dir, rc.ckpt_keep, rank, world);
  auto save = [&](int step) {
    const CheckpointResult r = rotator->save(model_, step, &opt_);
    if (r.ok) {
      last_good = step;
      ++res.checkpoints_saved;
    } else {
      std::fprintf(stderr, "[ckpt] %ssave failed at step %d: %s\n",
                   who.c_str(), step, r.error.c_str());
    }
  };

  // Every rank owns an identical loader over the identical stream; a DDP
  // step consumes `world` micro-batches (each rank keeps the rank-th), so
  // a replay to step S skips S x accum x world batches: step S then sees
  // exactly the batches an uninterrupted run would have.
  std::optional<data::BatchLoader> loader;
  auto replay_to = [&](int64_t step) {
    loader.emplace(corpus_, cfg_.batch, model_.config().seq_len,
                   cfg_.data_seed);
    skip_batches(*loader, step * accum * world);
  };
  // The one rewind, shared by resume, rollback and the abort reload: load
  // the newest good checkpoint at or before `newest`, absorb its fp32
  // weights back into the INT8 store (so the streaming per-slot
  // requantization continues from the restored trajectory instead of the
  // construction-time codes), and replay the data stream to it.
  auto rewind = [&](int64_t newest) {
    ResumeResult rr = auto_resume(rc.ckpt_dir, model_, &opt_, newest);
    res.corrupt_checkpoints_skipped += static_cast<int>(rr.skipped.size());
    for (const std::string& s : rr.skipped)
      std::fprintf(stderr, "[resume] %sskipped corrupt checkpoint %s\n",
                   who.c_str(), s.c_str());
    if (rr.resumed) {
      last_good = rr.step;
      if (qstore_ != nullptr) qstore_->requantize_from_params();
      replay_to(rr.step);
    }
    return rr;
  };

  int start_step = 0;
  if (rotating && rc.auto_resume) {
    const ResumeResult rr = rewind(INT64_MAX);
    if (rr.resumed) {
      start_step = static_cast<int>(rr.step);
      res.resumed_from_step = rr.step;
      std::fprintf(stderr, "[resume] %scontinuing from step %lld%s\n",
                   who.c_str(), static_cast<long long>(rr.step),
                   rr.optimizer_state_restored ? " with optimizer state"
                                               : " (weights only)");
    } else if (!rr.error.empty()) {
      // Checkpoints existed but none loaded: starting over silently would
      // discard the run the checkpoints were protecting.
      res.diverged = true;
      res.divergence_diagnostics = "auto-resume failed: " + rr.error;
      return res;
    }
  }
  if (!loader) replay_to(0);
  if (rc.watchdog && last_good < 0) {
    // Baseline rollback target: divergence before the first periodic
    // checkpoint rolls back to the initial weights. Every rank scans the
    // directory and sweeps its temps before any rank writes into it.
    if (comm_ != nullptr) comm_->barrier();
    save(start_step);
  }

  const data::ValidationSet val = data::make_validation_set(
      corpus_, cfg_.eval_batches, cfg_.batch, model_.config().seq_len,
      cfg_.val_seed);
  CosineSchedule sched(cfg_.lr, cfg_.steps, cfg_.warmup_frac,
                       cfg_.final_lr_frac);

  DivergenceWatchdog watchdog(rc.wd);
  LrBackoff backoff(rc.wd.lr_backoff, rc.wd.min_history);
  int retries = 0;
  bool limiter_tightened = false;

  std::vector<int32_t> ids, targets;
  // One cached-env branch when APOLLO_METRICS is unset — the telemetry path
  // (grad-norm reduction, timing, JSONL write) is never taken.
  const bool telemetry = obs::telemetry_enabled();
  const bool faults = fault::enabled();
  const bool fused = cfg_.fused_update;
  const bool want_norm = telemetry || rc.watchdog;
  // Every micro term of the step loss is loss/(accum·world), added left to
  // right, and backward is seeded with 1/(accum·world): the sums over
  // micro-batches and ranks restore the mean over the global batch.
  const float batches = static_cast<float>(accum * world);

  // The per-leaf update machinery both drivers share.
  UpdatePipeline pipeline(opt_, comm_, qstore_);

  // Rolls the step back (or aborts the run) after the loss check or the
  // gradient check failed. kRetry rewinds `step` to the rollback target.
  // Every rank of a world reaches the same verdict (the loss is all-reduced
  // and the gradient norm exchanged) and, past that collective, scans the
  // same committed files, so all ranks roll back to the same step.
  enum class WdAction { kRetry, kAbort };
  auto handle_divergence = [&](int& step, const std::string& why) {
    // The abandoned attempt's fields and samples must not reach the row of
    // the step that replaces it.
    if (telemetry) obs::telemetry().discard();
    ++res.rollbacks;
    obs::Registry::instance().counter("watchdog.rollbacks").add(1);
    if (retries >= rc.wd.max_retries) {
      // Escalation ladder: tighten the norm-growth limiter once and
      // grant a final retry budget, then abort with diagnostics.
      if (!limiter_tightened &&
          opt_.tighten_norm_limiter(rc.wd.limiter_tighten)) {
        limiter_tightened = true;
        retries = 0;
        std::fprintf(stderr,
                     "[watchdog] retry budget exhausted; tightened "
                     "norm-growth limiter, granting a final budget\n");
      } else {
        res.diverged = true;
        res.divergence_diagnostics =
            "diverged at step " + std::to_string(step) + ": " + why + "; " +
            std::to_string(res.rollbacks) + " rollback(s), lr " + "scale " +
            std::to_string(backoff.scale()) +
            ", last good checkpoint at step " + std::to_string(last_good);
        std::fprintf(stderr, "[watchdog] aborting: %s\n",
                     res.divergence_diagnostics.c_str());
        rewind(last_good);
        return WdAction::kAbort;
      }
    }
    ++retries;
    const ResumeResult rr = rewind(last_good);
    if (!rr.resumed) {
      res.diverged = true;
      res.divergence_diagnostics =
          "no rollback target at or before step " +
          std::to_string(last_good) +
          (rr.error.empty() ? std::string() : ": " + rr.error);
      std::fprintf(stderr, "[watchdog] aborting: %s\n",
                   res.divergence_diagnostics.c_str());
      return WdAction::kAbort;
    }
    opt_.reseed_projection(static_cast<uint64_t>(res.rollbacks));
    backoff.on_rollback();
    watchdog.reset_history();
    std::fprintf(stderr,
                 "[watchdog] %sstep %d: %s — rolled back to step %lld "
                 "(retry %d/%d, lr scale %.6g)\n",
                 who.c_str(), step, why.c_str(),
                 static_cast<long long>(rr.step), retries, rc.wd.max_retries,
                 static_cast<double>(backoff.scale()));
    step = static_cast<int>(rr.step) - 1;  // ++ re-enters there
    return WdAction::kRetry;
  };

  // Deals one data-parallel micro-batch: all ranks advance the shared
  // stream by `world` batches in rank order and keep the rank-th, so the
  // union of what the world consumes per step is exactly what a
  // single-process `grad_accum = world` run consumes.
  std::vector<int32_t> scratch_ids, scratch_targets;
  auto next_batch = [&](std::vector<int32_t>& out_ids,
                        std::vector<int32_t>& out_targets) {
    if (comm_ == nullptr) {
      loader->next(out_ids, out_targets);
      return;
    }
    for (int r = 0; r < world; ++r) {
      if (r == rank)
        loader->next(out_ids, out_targets);
      else
        loader->next(scratch_ids, scratch_targets);
    }
  };

  using Clock = std::chrono::steady_clock;
  for (int step = start_step; step < cfg_.steps; ++step) {
    APOLLO_TRACE_SCOPE("train.step", "train");
    if (comm_ != nullptr) comm_->heartbeat();
    if (faults && fault::take_at(fault::Kind::kCrash, step)) {
      // Simulated kill: no atexit flushing, no destructors — the next run
      // must recover from on-disk state alone.
      std::_Exit(fault::kCrashExitCode);
    }
    if (faults && fault::take_at(fault::Kind::kHang, step)) {
      // Simulated livelock: the rank stops ticking its heartbeat without
      // exiting, so only the supervisor's stall detector can reclaim it.
      for (;;) {
        timespec ts{};
        ts.tv_nsec = 100 * 1000 * 1000;
        nanosleep(&ts, nullptr);
      }
    }
    const Clock::time_point step_t0 = Clock::now();
    float step_loss = 0.f;
    double grad_norm = 0.0;
    float lr = 0.f;
    nn::ParamList params = model_.parameters();
    pipeline.arm(params, want_norm, accum, rc.watchdog);
    if (faults && fault::take_at(fault::Kind::kNanGrad, step))
      pipeline.arm_nan_grad();

    // Closes the step's loss: the rank-ordered sum over the world (the
    // addition sequence of sequential micro-batch accumulation), the
    // watchdog's loss checks and the step's learning rate. Returns why the
    // step must roll back, or "".
    auto close_loss = [&]() {
      if (comm_ != nullptr) comm_->allreduce_sum(&step_loss, 1);
      if (rc.watchdog) {
        std::string why = watchdog.check(static_cast<double>(step_loss), 0.0);
        if (!why.empty()) return why;
        backoff.on_good_step();
      }
      lr = sched.lr_at(step) * backoff.scale();
      opt_.set_lr(lr);
      return std::string();
    };

    // The classic driver zeroes the gradients and keeps them through
    // backward. The fused driver frees them: backward re-creates each one
    // zero-filled on first touch, so a gradient only occupies memory between
    // its first accumulation and its update (or its move into the stash).
    if (fused)
      for (nn::Parameter* p : params) p->grad = Matrix();
    else
      model_.zero_grads();
    std::string why;  // set when the step rolls back
    for (int micro = 0; micro < accum; ++micro) {
      APOLLO_TRACE_SCOPE("forward_backward", "train");
      next_batch(ids, targets);
      if (!fused && micro > 0) model_.zero_grads();
      const bool last = micro + 1 == accum;
      // Under either driver the accumulation stash stays live across micro
      // tapes, so the stash at micro entry rides on top of this tape's own
      // high-water marks.
      const int64_t stash0 = pipeline.stash_bytes();
      ag::Tape tape;
      ag::Var loss = model_.loss(tape, ids, targets);
      step_loss += tape.value(loss)[0] / batches;
      if (fused) {
        // The last fused backward applies the update, so the loss closes
        // before it; the earlier ones only stash their gradients.
        if (last) {
          why = close_loss();
          if (!why.empty()) break;
          pipeline.begin_updates();
        }
        tape.set_gradient_release(true);
        tape.set_leaf_callback([&](const Matrix*, Matrix* g) {
          last ? pipeline.on_final_leaf(g, tape) : pipeline.stash_leaf(g, tape);
        });
      }
      tape.backward(loss, 1.f / batches);
      if (!fused && accum > 1) pipeline.stash_param_grads();
      res.peak_activation_bytes =
          std::max(res.peak_activation_bytes, tape.peak_activation_bytes());
      res.peak_grad_bytes =
          std::max(res.peak_grad_bytes, stash0 + tape.peak_grad_bytes());
      res.peak_total_bytes =
          std::max(res.peak_total_bytes, stash0 + tape.peak_total_bytes());
    }
    if (why.empty() && fused) pipeline.finish_fused();
    if (why.empty() && !fused) {
      // The classic backward applies nothing, so the loss closes after it;
      // every rank all-reduces the loss before reducing the gradients.
      pipeline.finalize_classic_grads();
      why = close_loss();
      if (why.empty()) pipeline.reduce_classic_grads();
    }
    if (why.empty() && want_norm) {
      grad_norm = pipeline.grad_norm();
      // The loss already passed its checks, so only the norm can fail here.
      if (rc.watchdog)
        why = watchdog.check(static_cast<double>(step_loss), grad_norm);
    }
    if (!why.empty()) {
      if (handle_divergence(step, why) == WdAction::kAbort) break;
      continue;
    }
    if (rc.watchdog) watchdog.observe(static_cast<double>(step_loss));
    if (cfg_.record_step_losses) res.step_losses.push_back(step_loss);
    if (!fused) pipeline.apply_classic();

    if (cfg_.eval_every > 0 && (step + 1) % cfg_.eval_every == 0 &&
        step + 1 < cfg_.steps) {
      const double vl = validation_loss(model_, val);
      res.curve.push_back({step + 1, vl, std::exp(vl)});
      if (telemetry) obs::telemetry().set("val_loss", vl);
    }

    if (rotating && (step + 1) % std::max(1, rc.ckpt_every) == 0)
      save(step + 1);

    if (telemetry) {
      obs::Telemetry& tel = obs::telemetry();
      tel.set("loss", step_loss);
      tel.set("grad_norm", grad_norm);
      tel.set("lr", lr);
      tel.set_int("state_bytes", opt_.state_bytes());
      tel.set_int("activation_bytes", res.peak_activation_bytes);
      tel.set_int("mem.peak_grad_bytes", res.peak_grad_bytes);
      tel.set_int("mem.peak_total_bytes", res.peak_total_bytes);
      if (res.rollbacks > 0) tel.set_int("rollbacks", res.rollbacks);
      tel.set("step_ms",
              std::chrono::duration<double, std::milli>(Clock::now() -
                                                        step_t0)
                  .count());
      tel.commit(step + 1);
    }
  }
  const double vl = validation_loss(model_, val);
  res.curve.push_back({cfg_.steps, vl, std::exp(vl)});
  res.final_perplexity = std::exp(vl);
  res.optimizer_state_bytes = opt_.state_bytes();
  return res;
}

}  // namespace apollo::train
