#include "train/trainer.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
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

  // Data-parallel configuration. The watchdog's rollback protocol and the
  // INT8 weight store are incompatible with ZeRO-1 sharding (each would
  // need a collective agreement protocol of its own), and grad_accum is
  // redundant — the world *is* the accumulation (see trainer.h).
  const int world = comm_ != nullptr ? comm_->world() : 1;
  const int rank = comm_ != nullptr ? comm_->rank() : 0;
  if (comm_ != nullptr) {
    APOLLO_CHECK_MSG(cfg_.grad_accum <= 1,
                     "DDP replaces grad accumulation; use --ranks");
    APOLLO_CHECK_MSG(!rc.watchdog, "the divergence watchdog is per-process");
    APOLLO_CHECK_MSG(qstore_ == nullptr,
                     "quantized weights are incompatible with DDP");
  }
  opt_.set_shard(rank, world);

  std::unique_ptr<CheckpointRotator> rotator;
  std::unique_ptr<DdpCheckpointRotator> ddp_rotator;
  if (rotating && comm_ != nullptr)
    ddp_rotator = std::make_unique<DdpCheckpointRotator>(
        rc.ckpt_dir, rc.ckpt_keep, rank, world);
  else if (rotating)
    rotator = std::make_unique<CheckpointRotator>(rc.ckpt_dir, rc.ckpt_keep);
  // Log prefix naming this process under DDP.
  const std::string who =
      comm_ != nullptr ? "rank " + std::to_string(rank) + " " : "";
  int start_step = 0;
  if (rotating && rc.auto_resume) {
    ResumeResult rr = comm_ != nullptr
                          ? auto_resume_ddp(rc.ckpt_dir, model_, &opt_)
                          : auto_resume(rc.ckpt_dir, model_, &opt_);
    res.corrupt_checkpoints_skipped = static_cast<int>(rr.skipped.size());
    for (const std::string& s : rr.skipped)
      std::fprintf(stderr, "[resume] skipped corrupt checkpoint %s\n",
                   s.c_str());
    if (rr.resumed) {
      start_step = static_cast<int>(rr.step);
      res.resumed_from_step = rr.step;
      // Checkpoints carry fp32 weights; absorb them back into the INT8
      // store so the streaming per-slot requantization resumes from the
      // restored trajectory instead of the construction-time codes.
      if (qstore_ != nullptr) qstore_->requantize_from_params();
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

  const data::ValidationSet val = data::make_validation_set(
      corpus_, cfg_.eval_batches, cfg_.batch, model_.config().seq_len,
      cfg_.val_seed);
  CosineSchedule sched(cfg_.lr, cfg_.steps, cfg_.warmup_frac,
                       cfg_.final_lr_frac);
  const int accum = std::max(1, cfg_.grad_accum);

  // Every rank owns an identical loader over the identical stream; a DDP
  // step consumes `world` micro-batches (each rank keeps the rank-th), so
  // replay after resume skips world x accum batches per completed step.
  std::optional<data::BatchLoader> loader;
  loader.emplace(corpus_, cfg_.batch, model_.config().seq_len,
                 cfg_.data_seed);
  skip_batches(*loader, static_cast<int64_t>(start_step) * accum * world);

  DivergenceWatchdog watchdog(rc.wd);
  LrBackoff backoff(rc.wd.lr_backoff, rc.wd.min_history);
  int retries = 0;
  bool limiter_tightened = false;
  int64_t last_ckpt_step = -1;
  if (rotating) {
    const std::vector<int64_t> existing =
        CheckpointRotator::list_steps(rc.ckpt_dir);
    if (!existing.empty()) {
      last_ckpt_step = existing.back();
    } else if (rc.watchdog) {
      // Baseline rollback target: divergence before the first periodic
      // checkpoint rolls back to the initial weights.
      if (rotator->save(model_, start_step, &opt_).ok) {
        last_ckpt_step = start_step;
        ++res.checkpoints_saved;
      }
    }
  }

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
            ", last good checkpoint at step " +
            std::to_string(last_ckpt_step);
        std::fprintf(stderr, "[watchdog] aborting: %s\n",
                     res.divergence_diagnostics.c_str());
        if (last_ckpt_step >= 0)
          load_checkpoint(
              CheckpointRotator::path_for(rc.ckpt_dir, last_ckpt_step),
              model_, &opt_);
        return WdAction::kAbort;
      }
    }
    ++retries;
    APOLLO_CHECK(last_ckpt_step >= 0);
    const std::string path =
        CheckpointRotator::path_for(rc.ckpt_dir, last_ckpt_step);
    CheckpointResult rolled = load_checkpoint(path, model_, &opt_);
    if (!rolled.ok) {
      res.diverged = true;
      res.divergence_diagnostics =
          "rollback target unloadable (" + path + "): " + rolled.error;
      std::fprintf(stderr, "[watchdog] aborting: %s\n",
                   res.divergence_diagnostics.c_str());
      return WdAction::kAbort;
    }
    opt_.reseed_projection(static_cast<uint64_t>(res.rollbacks));
    backoff.on_rollback();
    watchdog.reset_history();
    std::fprintf(stderr,
                 "[watchdog] step %d: %s — rolled back to step %lld "
                 "(retry %d/%d, lr scale %.6g)\n",
                 step, why.c_str(), static_cast<long long>(last_ckpt_step),
                 retries, rc.wd.max_retries,
                 static_cast<double>(backoff.scale()));
    // Replay the data stream from the rollback point.
    loader.emplace(corpus_, cfg_.batch, model_.config().seq_len,
                   cfg_.data_seed);
    skip_batches(*loader, last_ckpt_step * accum);
    if (qstore_ != nullptr) qstore_->requantize_from_params();
    step = static_cast<int>(last_ckpt_step) - 1;  // ++ re-enters there
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

    if (rotating && (step + 1) % std::max(1, rc.ckpt_every) == 0) {
      std::string err;
      bool saved = false;
      if (ddp_rotator != nullptr) {
        saved = ddp_rotator->save(model_, step + 1, opt_, &err);
      } else {
        const CheckpointResult r = rotator->save(model_, step + 1, &opt_);
        saved = r.ok;
        err = r.error;
      }
      if (saved) {
        last_ckpt_step = step + 1;
        ++res.checkpoints_saved;
      } else {
        std::fprintf(stderr, "[ckpt] %ssave failed at step %d: %s\n",
                     who.c_str(), step + 1, err.c_str());
      }
    }

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
