// Resilience subsystem: rotating crash-consistent checkpoints, newest-first
// auto-resume that skips corrupt files, and the divergence watchdog that
// turns a NaN/Inf/spiking step into a rollback instead of a dead run.
//
// Recovery state machine (docs/RESILIENCE.md has the full picture):
//
//   HEALTHY --(NaN/Inf loss or grad, or loss > spike_factor x running
//              median)--> DIVERGED --> rollback to last good checkpoint,
//   re-seed the projection, multiply the LR by lr_backoff --> PROBATION
//   --(min_history healthy steps)--> HEALTHY (LR scale restored, retry
//   budget refilled). When the retry budget is exhausted the watchdog
//   tightens the optimizer's norm-growth limiter once and grants a final
//   budget; if that also diverges the run aborts with diagnostics.
//
// All components are deterministic: the watchdog's running median is over
// the exact loss sequence, rollback restores bit-identical weights and
// optimizer state (checkpoint v3 round-trips raw float bytes), and the
// projection re-seed is a pure function of the old seed and the retry
// count.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "nn/llama.h"
#include "nn/parameter.h"
#include "optim/optimizer.h"
#include "train/checkpoint.h"

namespace apollo::train {

// --- divergence watchdog ---------------------------------------------------

struct WatchdogConfig {
  // A step diverges when loss or grad norm is non-finite, or when loss
  // exceeds spike_factor x the running median of recent healthy losses.
  double spike_factor = 10.0;
  // Sliding window of healthy losses feeding the median.
  int median_window = 11;
  // Spike detection stays off until this many healthy losses are recorded
  // (the first steps of a run legitimately move fast).
  int min_history = 5;
  // Rollbacks allowed before escalating. The limiter-tightening escalation
  // grants one extra budget, so the hard cap is 2*max_retries rollbacks.
  int max_retries = 3;
  // Multiplied into the scheduled LR after each rollback; restored to 1
  // after the probation window passes.
  float lr_backoff = 0.5f;
  // gamma -> 1 + (gamma - 1) * limiter_tighten on escalation.
  float limiter_tighten = 0.5f;
};

class DivergenceWatchdog {
 public:
  explicit DivergenceWatchdog(const WatchdogConfig& cfg) : cfg_(cfg) {}

  // Empty string when the step is healthy, else a human-readable reason.
  std::string check(double loss, double grad_norm) const;

  // Record a healthy step's loss into the median window.
  void observe(double loss);

  // Forget history after a rollback — post-rollback losses are compared
  // against the recovered trajectory, not the diverged one.
  void reset_history();

  // Median of the recorded window; 0 while empty.
  double running_median() const;
  int history_size() const { return static_cast<int>(window_.size()); }

 private:
  WatchdogConfig cfg_;
  std::deque<double> window_;
};

// Exponential LR backoff with probation-based restore: each rollback
// multiplies the scale by `factor`; once `probation` consecutive good steps
// pass, the scale snaps back to 1 (the diverged region is behind us, so the
// run finishes at full schedule strength).
class LrBackoff {
 public:
  LrBackoff(float factor, int probation)
      : factor_(factor), probation_(probation) {}

  void on_rollback() {
    scale_ *= factor_;
    good_streak_ = 0;
  }
  void on_good_step() {
    if (scale_ >= 1.f) return;
    if (++good_streak_ >= probation_) {
      scale_ = 1.f;
      good_streak_ = 0;
    }
  }
  float scale() const { return scale_; }
  bool in_probation() const { return scale_ < 1.f; }

 private:
  float factor_;
  int probation_;
  float scale_ = 1.f;
  int good_streak_ = 0;
};

// --- rotating checkpoints + auto-resume ------------------------------------
//
// A checkpoint at step S is `ckpt_S.aplo`, a v3 file (train/checkpoint.h),
// plus — when that file carries no optimizer section — the complete shard
// set a data-parallel world writes beside it:
//   ckpt_S.shard<r>of<W>.aplo   rank r's optimizer-state shard, one per rank
// Shard files are committed by the same code as checkpoint v3
// (train/ckpt_io.h: commit_file) with the same CRC-32 section framing, and
// their blob length is checked before it sizes an allocation. One loader
// reads both kinds at any world width, so a run can continue on more or
// fewer ranks than wrote its checkpoints.

// Writes the checkpoints of rank `rank` of a `world`-wide run into a
// directory. At width 1 a step is one `ckpt_<step>.aplo` holding the
// weights and `opt`'s state; in a world rank 0 writes that file with the
// weights alone and every rank its own shard of `opt`'s state. The process
// that sees a step's files all on disk (in a world, the last rank to commit
// its shard) deletes every file of the steps older than the newest `keep`,
// shards of any width included, so a rank lost mid-save never leaves the
// directory without a complete step. Construction sweeps stale `*.tmp`s.
class CheckpointRotator {
 public:
  CheckpointRotator(std::string dir, int keep, int rank = 0, int world = 1);

  CheckpointResult save(nn::LlamaModel& model, int64_t step,
                        const optim::Optimizer* opt);
  // The same save, reporting a failure through *err.
  bool save(nn::LlamaModel& model, int64_t step, const optim::Optimizer& opt,
            std::string* err);

  static std::string path_for(const std::string& dir, int64_t step);
  // Steps with an on-disk checkpoint file, ascending.
  static std::vector<int64_t> list_steps(const std::string& dir);

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  int keep_;
  int rank_;
  int world_;
};

// The data-parallel spelling of the same rotator.
using DdpCheckpointRotator = CheckpointRotator;

struct ResumeResult {
  bool resumed = false;
  int64_t step = 0;
  bool optimizer_state_restored = false;
  // One "path: reason" entry per corrupt/unreadable checkpoint skipped.
  std::vector<std::string> skipped;
  std::string error;  // set when checkpoints existed but none loaded
};

// Scans the checkpoints of `dir` at or before step `newest`, newest first,
// and loads the first that validates, skipping the others with a readable
// reason (each skip increments the `ckpt.corrupt_skipped` registry
// counter). A step loads when its weights file passes all CRC/shape
// validation and its header holds the step its name gives; when `opt` is
// given and the file has no optimizer section, the step's complete shard
// set must validate too, whole and in memory before any state is merged.
// The optimizer state — the file's own section, or the shard set merged in
// rank order — is restored under `opt`'s current shard configuration, which
// redistributes ZeRO-1 ownership when the width changed; a section or set
// another optimizer wrote resumes the weights alone. Every rank of a world
// scans the same files and reaches the same verdict. Names whose step
// passes INT_MAX are not checkpoints and are not listed. An empty or
// missing directory resumes nothing and is not an error, nor is one whose
// every step lacks a complete shard set (saves a lost rank left unfinished).
ResumeResult auto_resume(const std::string& dir, nn::LlamaModel& model,
                         optim::Optimizer* opt,
                         int64_t newest = INT64_MAX);

std::string shard_path_for(const std::string& dir, int64_t step, int rank,
                           int world);

// Atomically writes one rank's optimizer shard: what Optimizer::save_state
// writes under that rank's shard configuration, as the file's last CRC
// section.
bool save_state_shard(const std::string& path, const optim::Optimizer& opt,
                      const nn::ParamList& params, int64_t step, int rank,
                      int world, std::string* err);

// Validates one shard file end-to-end (magic, CRCs, and the step, rank and
// world its name gives) and hands back the name of the optimizer that wrote
// it and the raw optimizer blob.
bool read_state_shard(const std::string& path, int64_t expect_step,
                      int expect_rank, int expect_world,
                      std::string* opt_name, std::vector<char>* blob,
                      std::string* err);

// World size of the complete shard set stored for `step`: the largest W
// such that all of shard0..shard(W-1) exist. 0 when none is complete.
// (After a shrink restart a step can briefly have sets at two widths; both
// encode the same trajectory — merge_state redistributes ownership — so
// preferring the larger is safe and deterministic.)
int shard_world_at(const std::string& dir, int64_t step);

// --- trainer-facing configuration ------------------------------------------

struct ResilienceConfig {
  // Enables rotating checkpoints (and rollback); empty = disabled.
  std::string ckpt_dir;
  int ckpt_every = 50;
  int ckpt_keep = 3;
  // Scan ckpt_dir before training and continue from the newest good
  // checkpoint (requires ckpt_dir). Without it the run is a new one, and
  // Trainer::run refuses a ckpt_dir that already holds checkpoints.
  bool auto_resume = true;
  // Enables the divergence watchdog (requires ckpt_dir for rollback).
  bool watchdog = false;
  WatchdogConfig wd;
};

}  // namespace apollo::train
