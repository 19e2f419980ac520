// Training workloads: pretrain-apollo, qstream-mini and ddp2-apollo.
//
// The untraced run calls train::Trainer::run as a black box; the only
// observation it makes is a timestamp whenever the trainer pulls the first
// sequence of a step's batch (StampedSource), which gives per-step wall
// times without touching the program. The traced run re-drives the same
// step through the public entry points Trainer::run uses for that workload
// (classic or fused driver) with spans around each call, and must replay
// the untraced loss stream bit for bit.
#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>
#include <unordered_map>

#include "autograd/tape.h"
#include "core/factory.h"
#include "core/quantized_weights.h"
#include "core/threadpool.h"
#include "data/corpus.h"
#include "dist/world.h"
#include "nn/llama.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/simd/simd.h"
#include "train/checkpoint.h"
#include "train/resilience.h"
#include "train/schedule.h"
#include "train/trainer.h"
#include "train/update_pipeline.h"
#include "workloads.h"

namespace perfbench {

using namespace apollo;
namespace fs = std::filesystem;

namespace {

// One training workload's fixed shape (METRICS.md, "Workloads").
struct Spec {
  const char* optimizer;
  int micro;       // sequences per micro-batch, per rank
  int accum;       // micro-batches per optimizer step
  int ranks;       // data-parallel processes
  bool fused;      // fused leaf-callback update driver
  bool quant;      // INT8 QuantizedWeightStore (group 128)
  bool periodic_eval;
  bool checkpoints;
  // Optimizer steps per --seconds: sizes the fixed amount of work so one run
  // lasts about --seconds on the reference machine (a 4-vCPU AVX-512 Xeon).
  // The work, not the wall clock, is fixed, so the loss stream is a pure
  // function of (seed, seconds).
  double steps_per_second;
};

Spec spec_for(const std::string& name) {
  if (name == "pretrain-apollo")
    return {"apollo", 8, 1, 1, false, false, true, true, 11.0};
  if (name == "qstream-mini")
    return {"apollo-mini", 2, 2, 1, true, true, false, false, 20.0};
  return {"apollo", 4, 1, 2, false, false, true, true, 13.0};  // ddp2
}

int steps_for(const Spec& sp, int seconds) {
  const int tens = static_cast<int>(std::lround(sp.steps_per_second * seconds / 10.0));
  return 10 * std::max(2, tens);
}

constexpr int kMaxSteps = 2048;
constexpr int kEvalBatches = 8;

// Records the time the trainer starts fetching each step's batch: the
// validation set is drawn first, then every step pulls accum × world × micro
// sequences. Forwarding otherwise; the stream it produces is unchanged.
class StampedSource : public data::TokenSource {
 public:
  StampedSource(const data::TokenSource& inner, int64_t first_call,
                int64_t calls_per_step)
      : inner_(inner), first_(first_call), per_step_(calls_per_step) {
    stamps_.reserve(kMaxSteps);
  }
  int vocab_size() const override { return inner_.vocab_size(); }
  void sample_sequence(Rng& rng, int len,
                       std::vector<int32_t>& out) const override {
    if (calls_ >= first_ && (calls_ - first_) % per_step_ == 0)
      stamps_.push_back(now_ns());
    ++calls_;
    inner_.sample_sequence(rng, len, out);
  }
  const std::vector<int64_t>& stamps() const { return stamps_; }

 private:
  const data::TokenSource& inner_;
  int64_t first_;
  int64_t per_step_;
  mutable int64_t calls_ = 0;
  mutable std::vector<int64_t> stamps_;
};

// Forwarding optimizer that times the streaming update API. Shard state is
// mirrored by the caller (owns_slot is not virtual).
class OptSpy : public optim::Optimizer {
 public:
  OptSpy(optim::Optimizer& inner, Tracer& tr) : inner_(inner), tr_(tr) {}
  void begin_step(const nn::ParamList& params) override {
    Scope s(&tr_, "optim.step");
    Optimizer::begin_step(params);
    inner_.begin_step(params);
  }
  void step_param(nn::Parameter& p, int slot) override {
    Scope s(&tr_, "optim.step");
    inner_.step_param(p, slot);
  }
  void end_step(const nn::ParamList& params) override {
    Scope s(&tr_, "optim.step");
    inner_.end_step(params);
  }
  std::string name() const override { return inner_.name(); }
  int64_t state_bytes() const override { return inner_.state_bytes(); }
  bool save_state(std::FILE* f, const nn::ParamList& params) const override {
    return inner_.save_state(f, params);
  }
  bool load_state(std::FILE* f, const nn::ParamList& params) override {
    return inner_.load_state(f, params);
  }
  bool merge_state(std::FILE* f, const nn::ParamList& params) override {
    return inner_.merge_state(f, params);
  }

 protected:
  const char* step_trace_name() const override { return inner_.trace_name(); }

 private:
  optim::Optimizer& inner_;
  Tracer& tr_;
};

// What the program needs before the first step; building it is setup_s.
struct Setup {
  std::unique_ptr<data::SyntheticCorpus> corpus;
  std::unique_ptr<nn::LlamaModel> model;
  std::unique_ptr<optim::Optimizer> opt;
  std::unique_ptr<core::QuantizedWeightStore> qstore;
  train::TrainConfig tc;
};

Setup make_setup(const Spec& sp, const Options& o, int steps,
                 const std::string& ckpt_dir) {
  Setup s;
  const nn::LlamaConfig cfg = nn::llama_7b_proxy();
  data::CorpusConfig cc;
  cc.vocab = cfg.vocab;
  cc.seed = mix_seed(o.seed, 1);
  s.corpus = std::make_unique<data::SyntheticCorpus>(cc);
  s.model = std::make_unique<nn::LlamaModel>(cfg, mix_seed(o.seed, 2));
  core::FactoryOptions fo;
  fo.rank = std::max(1, cfg.hidden / 4);
  fo.update_freq = 200;
  fo.seed = mix_seed(o.seed, 3);
  s.opt = core::make_optimizer(sp.optimizer, fo);
  if (sp.quant)
    s.qstore = std::make_unique<core::QuantizedWeightStore>(
        s.model->parameters(), mix_seed(o.seed, 4), 128);
  train::TrainConfig& tc = s.tc;
  tc.steps = steps;
  tc.batch = sp.micro;
  tc.grad_accum = sp.accum;
  tc.lr = core::default_lr(sp.optimizer);
  tc.eval_every = sp.periodic_eval ? steps / 10 : 0;
  tc.eval_batches = kEvalBatches;
  tc.data_seed = mix_seed(o.seed, 5);
  tc.val_seed = mix_seed(o.seed, 6);
  tc.record_step_losses = true;
  tc.fused_update = sp.fused;
  if (sp.checkpoints && !ckpt_dir.empty()) {
    tc.resilience.ckpt_dir = ckpt_dir;
    tc.resilience.ckpt_every = steps / 2;
    tc.resilience.ckpt_keep = 2;
    tc.resilience.auto_resume = false;
  }
  return s;
}

// Per-layer figures of one traced run (one rank), all times summed in ms.
struct LayerTotals {
  double data_ms, forward_ms, backward_ms, optim_ms, quant_ms, update_ms,
      eval_ms, ckpt_ms, allreduce_ms, broadcast_ms, unattributed_ms;
  double step_total_ms;
  double step_p50_ms, step_p90_ms;
  int64_t step_samples;
  double ckpt_bytes_sum;
  int64_t ckpt_count;
  double dist_bytes;
  int64_t optim_state_bytes, quant_weight_bytes;
};

// The outcome of one run (untraced or traced) on one rank. Plain data so
// ranks can hand it back through shared memory.
struct Outcome {
  int64_t body_start_ns, setup_done_ns;  // ddp: rank timeline
  int64_t run_t0_ns, run_t1_ns;
  int64_t peak_rss;
  int32_t steps;
  uint32_t loss_bits[kMaxSteps];
  int32_t gaps;
  double gap_ms[kMaxSteps];
  double final_val;
  int32_t diverged;
  int64_t peak_grad, peak_total;
  LayerTotals layers;
  int32_t ok;  // the body ran to completion
};

uint32_t bits_of(float f) {
  uint32_t u = 0;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

float float_of(uint32_t u) {
  float f = 0;
  std::memcpy(&f, &u, sizeof f);
  return f;
}

int64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = fs::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(n);
}

void run_untraced(const Spec& sp, Setup& s, dist::Communicator* comm,
                  Outcome& out) {
  const int world = comm != nullptr ? comm->world() : 1;
  StampedSource src(*s.corpus,
                    static_cast<int64_t>(s.tc.eval_batches) * s.tc.batch,
                    static_cast<int64_t>(sp.accum) * world * s.tc.batch);
  train::Trainer trainer(*s.model, *s.opt, src, s.tc);
  if (s.qstore) trainer.set_quantized_weights(s.qstore.get());
  if (comm != nullptr) trainer.set_communicator(comm);
  out.run_t0_ns = now_ns();
  const train::TrainResult res = trainer.run();
  out.run_t1_ns = now_ns();
  out.steps = static_cast<int32_t>(res.step_losses.size());
  for (size_t i = 0; i < res.step_losses.size() && i < kMaxSteps; ++i)
    out.loss_bits[i] = bits_of(res.step_losses[i]);
  const std::vector<int64_t>& st = src.stamps();
  out.gaps = 0;
  for (size_t i = 1; i < st.size() && out.gaps < kMaxSteps; ++i)
    out.gap_ms[out.gaps++] = ms_between(st[i - 1], st[i]);
  out.final_val = res.curve.empty() ? NAN : res.curve.back().val_loss;
  out.diverged = res.diverged ? 1 : 0;
  out.peak_grad = res.peak_grad_bytes;
  out.peak_total = res.peak_total_bytes;
}

// Trainer::run's step for this workload, re-driven call by call with spans.
// Mirrors trainer.cpp for the configurations the workloads use: no watchdog,
// faults, telemetry or resume, and the fused driver only in one process.
void run_traced(const Spec& sp, Setup& s, dist::Communicator* comm,
                Tracer& tr, Outcome& out) {
  nn::LlamaModel& model = *s.model;
  optim::Optimizer& inner = *s.opt;
  const train::TrainConfig& tc = s.tc;
  const int world = comm != nullptr ? comm->world() : 1;
  const int rank = comm != nullptr ? comm->rank() : 0;
  const int seq = model.config().seq_len;
  const int accum = std::max(1, tc.grad_accum);
  const float inv = 1.f / static_cast<float>(accum * world);
  LayerTotals& L = out.layers;
  L = LayerTotals{};

  out.run_t0_ns = now_ns();
  inner.set_shard(rank, world);
  OptSpy spy(inner, tr);
  spy.set_shard(rank, world);
  const std::string& dir = tc.resilience.ckpt_dir;
  std::unique_ptr<train::CheckpointRotator> rot;
  std::unique_ptr<train::DdpCheckpointRotator> drot;
  if (!dir.empty()) {
    if (comm != nullptr)
      drot = std::make_unique<train::DdpCheckpointRotator>(
          dir, tc.resilience.ckpt_keep, rank, world);
    else
      rot = std::make_unique<train::CheckpointRotator>(
          dir, tc.resilience.ckpt_keep);
  }
  const data::ValidationSet val = data::make_validation_set(
      *s.corpus, tc.eval_batches, tc.batch, seq, tc.val_seed);
  train::CosineSchedule sched(tc.lr, tc.steps, tc.warmup_frac,
                              tc.final_lr_frac);
  data::BatchLoader loader(*s.corpus, tc.batch, seq, tc.data_seed);
  // Collectives and requantization are issued here, around spans, so the
  // pipeline gets neither; it still runs every other per-leaf step.
  train::UpdatePipeline pipeline(spy, nullptr, nullptr);

  std::vector<int32_t> ids, targets, skip_ids, skip_targets;
  auto next_batch = [&]() {
    Scope b(&tr, "data.batch");
    for (int r = 0; r < world; ++r) {
      if (r == rank)
        loader.next(ids, targets);
      else
        loader.next(skip_ids, skip_targets);
    }
  };
  std::unordered_map<const Matrix*, int> slot_of;
  std::vector<char> requantized;
  out.steps = 0;

  for (int step = 0; step < tc.steps; ++step) {
    Scope step_span(&tr, "train.step", step);
    if (comm != nullptr) comm->heartbeat();
    float step_loss = 0.f;
    nn::ParamList params = model.parameters();
    pipeline.arm(params, /*want_norm=*/false, accum);
    if (sp.fused) {
      for (nn::Parameter* p : params) p->grad = Matrix();
      if (s.qstore) {
        slot_of.clear();
        for (size_t i = 0; i < params.size(); ++i)
          slot_of[&params[i]->grad] = static_cast<int>(i);
        requantized.assign(params.size(), 0);
      }
      for (int micro = 0; micro + 1 < accum; ++micro) {
        next_batch();
        const int64_t stash0 = pipeline.stash_bytes();
        ag::Tape tape;
        ag::Var loss;
        {
          Scope f(&tr, "nn.forward");
          loss = model.loss(tape, ids, targets);
        }
        step_loss += tape.value(loss)[0] / static_cast<float>(accum * world);
        tape.set_gradient_release(true);
        tape.set_leaf_callback([&](const Matrix*, Matrix* g) {
          Scope u(&tr, "train.update");
          pipeline.stash_leaf(g, tape);
        });
        {
          Scope b(&tr, "autograd.backward");
          tape.backward(loss, inv);
        }
        out.peak_grad = std::max(out.peak_grad, stash0 + tape.peak_grad_bytes());
        out.peak_total =
            std::max(out.peak_total, stash0 + tape.peak_total_bytes());
      }
      next_batch();
      const int64_t stash0 = pipeline.stash_bytes();
      ag::Tape tape;
      ag::Var loss;
      {
        Scope f(&tr, "nn.forward");
        loss = model.loss(tape, ids, targets);
      }
      step_loss += tape.value(loss)[0] / static_cast<float>(accum * world);
      if (out.steps < kMaxSteps) out.loss_bits[out.steps] = bits_of(step_loss);
      ++out.steps;
      inner.set_lr(sched.lr_at(step));
      {
        Scope u(&tr, "train.update");
        pipeline.begin_updates();
      }
      tape.set_gradient_release(true);
      tape.set_leaf_callback([&](const Matrix*, Matrix* g) {
        const int slot = s.qstore ? slot_of.at(g) : -1;
        {
          Scope u(&tr, "train.update");
          pipeline.on_final_leaf(g, tape);
        }
        if (s.qstore) {
          Scope q(&tr, "quant.requantize");
          s.qstore->requantize_param(slot);
          requantized[static_cast<size_t>(slot)] = 1;
        }
      });
      {
        Scope b(&tr, "autograd.backward");
        tape.backward(loss, inv);
      }
      {
        Scope u(&tr, "train.update");
        pipeline.finish_fused();
      }
      if (s.qstore) {
        // Leaves outside the final graph are stepped by finish_fused; their
        // requantization is slot-local, so doing it here is equivalent.
        for (size_t i = 0; i < requantized.size(); ++i) {
          if (requantized[i]) continue;
          Scope q(&tr, "quant.requantize");
          s.qstore->requantize_param(static_cast<int>(i));
        }
      }
      out.peak_grad = std::max(out.peak_grad, stash0 + tape.peak_grad_bytes());
      out.peak_total = std::max(out.peak_total, stash0 + tape.peak_total_bytes());
    } else {
      model.zero_grads();
      for (int micro = 0; micro < accum; ++micro) {
        next_batch();
        if (accum > 1 && micro > 0) model.zero_grads();
        ag::Tape tape;
        ag::Var loss;
        {
          Scope f(&tr, "nn.forward");
          loss = model.loss(tape, ids, targets);
        }
        {
          Scope b(&tr, "autograd.backward");
          tape.backward(loss, inv);
        }
        step_loss += tape.value(loss)[0] / static_cast<float>(accum * world);
        if (accum > 1) {
          Scope u(&tr, "train.update");
          pipeline.stash_param_grads();
        }
        out.peak_grad = std::max(out.peak_grad, tape.peak_grad_bytes());
        out.peak_total = std::max(out.peak_total, tape.peak_total_bytes());
      }
      {
        Scope u(&tr, "train.update");
        pipeline.finalize_classic_grads();
      }
      if (comm != nullptr) {
        Scope a(&tr, "dist.allreduce");
        comm->allreduce_sum(&step_loss, 1);
        L.dist_bytes += sizeof(float);
        for (nn::Parameter* p : params) {
          if (p->grad.size() == 0) continue;
          comm->allreduce_sum(p->grad.data(), p->grad.size());
          L.dist_bytes += static_cast<double>(p->grad.size()) * sizeof(float);
        }
      }
      if (out.steps < kMaxSteps) out.loss_bits[out.steps] = bits_of(step_loss);
      ++out.steps;
      inner.set_lr(sched.lr_at(step));
      {
        Scope u(&tr, "train.update");
        pipeline.apply_classic();
      }
      if (comm != nullptr) {
        Scope bc(&tr, "dist.broadcast");
        for (size_t i = 0; i < params.size(); ++i) {
          Matrix& v = params[i]->value;
          comm->broadcast(v.data(), v.size(), static_cast<int>(i) % world);
          L.dist_bytes += static_cast<double>(v.size()) * sizeof(float);
        }
      }
    }

    if (tc.eval_every > 0 && (step + 1) % tc.eval_every == 0 &&
        step + 1 < tc.steps) {
      Scope e(&tr, "train.eval");
      train::validation_loss(model, val);
    }
    if (!dir.empty() && (step + 1) % std::max(1, tc.resilience.ckpt_every) == 0) {
      Scope c(&tr, "train.ckpt");
      bool saved = false;
      if (drot) {
        std::string err;
        saved = drot->save(model, step + 1, inner, &err);
      } else {
        saved = rot->save(model, step + 1, &inner).ok;
      }
      if (saved) {
        int64_t bytes = 0;
        if (rank == 0)
          bytes += file_bytes(train::CheckpointRotator::path_for(dir, step + 1));
        if (drot)
          bytes += file_bytes(dir + "/ckpt_" + std::to_string(step + 1) +
                              ".shard" + std::to_string(rank) + "of" +
                              std::to_string(world) + ".aplo");
        L.ckpt_bytes_sum += static_cast<double>(bytes);
        ++L.ckpt_count;
      }
    }
  }
  {
    Scope e(&tr, "train.eval", tc.steps);
    out.final_val = train::validation_loss(model, val);
  }
  out.run_t1_ns = now_ns();
  out.diverged = 0;
  out.gaps = 0;

  // Reduce the spans: self time per layer, step-time order statistics, and
  // the step time no layer span covers.
  L.data_ms = tr.self_ms("data.batch");
  L.forward_ms = tr.self_ms("nn.forward");
  L.backward_ms = tr.self_ms("autograd.backward");
  L.optim_ms = tr.self_ms("optim.step");
  L.quant_ms = tr.self_ms("quant.requantize");
  L.update_ms = tr.self_ms("train.update");
  L.eval_ms = tr.self_ms("train.eval");
  L.ckpt_ms = tr.self_ms("train.ckpt");
  L.allreduce_ms = tr.self_ms("dist.allreduce");
  L.broadcast_ms = tr.self_ms("dist.broadcast");
  L.unattributed_ms = tr.self_ms("train.step");
  const std::vector<double> steps_ms = tr.durations_ms("train.step");
  for (double d : steps_ms) L.step_total_ms += d;
  L.step_p50_ms = percentile(steps_ms, 0.5);
  L.step_p90_ms = percentile(steps_ms, 0.9);
  L.step_samples = static_cast<int64_t>(steps_ms.size());
  L.optim_state_bytes = inner.state_bytes();
  L.quant_weight_bytes = s.qstore ? s.qstore->weight_bytes() : 0;
}

// Shared-memory slots the ranks of a world report into (one per rank).
struct SharedOutcomes {
  explicit SharedOutcomes(int n) : n_(n) {
    bytes_ = sizeof(Outcome) * static_cast<size_t>(n);
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) {
      std::perror("mmap");
      std::exit(2);
    }
    slots_ = static_cast<Outcome*>(p);
  }
  ~SharedOutcomes() { munmap(slots_, bytes_); }
  SharedOutcomes(const SharedOutcomes&) = delete;
  SharedOutcomes& operator=(const SharedOutcomes&) = delete;
  Outcome& operator[](int r) { return slots_[r]; }
  void clear() { std::memset(static_cast<void*>(slots_), 0, bytes_); }
  int size() const { return n_; }

 private:
  int n_;
  size_t bytes_;
  Outcome* slots_;
};

enum class Mode { kSetupOnly, kUntraced, kTraced };

// One data-parallel run: forks the ranks, each builds its set-up and runs.
// Returns false if the world failed; *call_ns is when World::run was called.
bool run_world(const Spec& sp, const Options& o, int steps,
               const std::string& ckpt_dir, Mode mode, SharedOutcomes& sh,
               int64_t* call_ns) {
  sh.clear();
  dist::WorldConfig wc;
  wc.ranks = sp.ranks;
  wc.transport = dist::Transport::kShm;
  wc.max_restarts = 0;
  dist::World world(wc);
  *call_ns = now_ns();
  const int code = world.run([&](dist::Communicator& comm) {
    Outcome& out = sh[comm.rank()];
    out.body_start_ns = now_ns();
    core::set_thread_count(kPoolWidth);
    Setup s = make_setup(sp, o, steps, ckpt_dir);
    out.setup_done_ns = now_ns();
    if (mode == Mode::kUntraced) {
      run_untraced(sp, s, &comm, out);
    } else if (mode == Mode::kTraced) {
      Tracer tr;
      run_traced(sp, s, &comm, tr, out);
    }
    out.peak_rss = peak_rss_bytes();
    out.ok = 1;
    return 0;
  });
  if (code != 0) return false;
  for (int r = 0; r < sh.size(); ++r)
    if (!sh[r].ok) return false;
  return true;
}

std::vector<float> losses_of(const Outcome& o) {
  std::vector<float> v;
  for (int i = 0; i < o.steps && i < kMaxSteps; ++i)
    v.push_back(float_of(o.loss_bits[i]));
  return v;
}

bool same_bits(const Outcome& a, const Outcome& b) {
  if (a.steps != b.steps) return false;
  return std::memcmp(a.loss_bits, b.loss_bits,
                     sizeof(uint32_t) * static_cast<size_t>(std::min(a.steps, kMaxSteps))) == 0;
}

// Output checks shared by every run: finite losses, no divergence, and a
// final validation loss below the first step's loss.
void check_outcome(const Outcome& o, int steps, Result& r, const char* who) {
  const std::vector<float> losses = losses_of(o);
  int64_t bad = 0;
  for (float l : losses)
    if (!std::isfinite(l)) ++bad;
  if (o.steps != steps) {
    bad += std::max<int64_t>(0, steps - o.steps);
    r.fail_check(std::string(who) + ": ran " + std::to_string(o.steps) +
                 " of " + std::to_string(steps) + " steps");
  }
  if (o.diverged) {
    ++bad;
    r.fail_check(std::string(who) + ": trainer reported divergence");
  }
  if (!std::isfinite(o.final_val) || losses.empty() ||
      !(o.final_val < losses.front())) {
    ++bad;
    r.fail_check(std::string(who) + ": final validation loss " +
                 std::to_string(o.final_val) + " is not finite and below " +
                 "the first step loss");
  }
  r.failed = std::max(r.failed, std::min<int64_t>(bad, steps));
}

double tokens_of(const Spec& sp, int steps) {
  return static_cast<double>(sp.micro) * nn::llama_7b_proxy().seq_len *
         sp.accum * sp.ranks * steps;
}

// setup_s is the median of this many set-ups per run.
constexpr int kSetups = 9;

void add_end_to_end(Result& r, double setup_s, double tokens_per_s,
                    int64_t rss, std::vector<double> gaps) {
  r.add("setup_s", setup_s, "s", kSetups);
  r.add("tokens_per_s", tokens_per_s, "tokens/s");
  r.add("peak_rss_bytes", static_cast<double>(rss), "bytes");
  r.add("latency_ms_p50", percentile(gaps, 0.5), "ms",
        static_cast<int64_t>(gaps.size()));
  r.add("latency_ms_p90", percentile(gaps, 0.9), "ms",
        static_cast<int64_t>(gaps.size()));
}

std::vector<Metric> layer_values(const Spec& sp, const Outcome& o,
                                 double steps) {
  const LayerTotals& L = o.layers;
  std::vector<Metric> v = {
      {"data.batch_ms", L.data_ms / steps, "ms"},
      {"nn.forward_ms", L.forward_ms / steps, "ms"},
      {"autograd.backward_ms", L.backward_ms / steps, "ms"},
      {"autograd.peak_total_bytes", static_cast<double>(o.peak_total), "bytes"},
      {"autograd.peak_grad_bytes", static_cast<double>(o.peak_grad), "bytes"},
      {"optim.step_ms", L.optim_ms / steps, "ms"},
      {"optim.state_bytes", static_cast<double>(L.optim_state_bytes), "bytes"},
      {"quant.requantize_ms", L.quant_ms / steps, "ms"},
      {"quant.weight_bytes", static_cast<double>(L.quant_weight_bytes), "bytes"},
      {"train.update_ms", L.update_ms / steps, "ms"},
      {"train.eval_ms", L.eval_ms / steps, "ms"},
      {"train.ckpt_ms", L.ckpt_ms / steps, "ms"},
      {"train.ckpt_bytes",
       L.ckpt_count > 0 ? L.ckpt_bytes_sum / static_cast<double>(L.ckpt_count) : 0.0,
       "bytes"},
      {"train.step_ms_p50", L.step_p50_ms, "ms", L.step_samples},
      {"train.step_ms_p90", L.step_p90_ms, "ms", L.step_samples},
      {"train.unattributed_ms", L.unattributed_ms / steps, "ms"},
      {"train.final_val_loss", o.final_val, "nats"},
  };
  if (sp.ranks > 1) {
    v.push_back({"dist.allreduce_ms", L.allreduce_ms / steps, "ms"});
    v.push_back({"dist.broadcast_ms", L.broadcast_ms / steps, "ms"});
    v.push_back({"dist.bytes_per_step", L.dist_bytes / steps, "bytes"});
  }
  return v;
}

// Element-wise mean of two ranks' per-layer values (same names, same order).
std::vector<Metric> mean_of(const std::vector<Metric>& a,
                            const std::vector<Metric>& b) {
  std::vector<Metric> m = a;
  for (size_t i = 0; i < m.size(); ++i) m[i].value = 0.5 * (a[i].value + b[i].value);
  return m;
}

void check_coverage(const Outcome& o, Result& r, const char* who) {
  const LayerTotals& L = o.layers;
  const double covered =
      L.step_total_ms > 0 ? 1.0 - L.unattributed_ms / L.step_total_ms : 0.0;
  std::printf("# %s: layer spans cover %.2f%% of traced step time\n", who,
              100.0 * covered);
  if (covered < 0.9)
    r.fail_check(std::string(who) + ": layer spans cover only " +
                 std::to_string(100.0 * covered) + "% of traced step time");
}

void check_replay(const Outcome& u, const Outcome& t, Result& r,
                  const char* who) {
  if (!same_bits(u, t))
    r.fail_check(std::string(who) +
                 ": traced loss stream differs from the untraced run");
  if (u.peak_grad != t.peak_grad || u.peak_total != t.peak_total)
    r.fail_check(std::string(who) +
                 ": traced tape peaks differ from the untraced run");
  if (std::memcmp(&u.final_val, &t.final_val, sizeof(double)) != 0)
    r.fail_check(std::string(who) +
                 ": traced final validation loss differs from the untraced run");
}

void run_single_process(const Spec& sp, const Options& o, int steps,
                        Result& r) {
  core::set_thread_count(kPoolWidth);
  const std::string ckpt_u = o.workdir + "/ckpt-untraced";
  const std::string ckpt_t = o.workdir + "/ckpt-traced";
  r.attempted = steps;

  // Set up kSetups times; the last set-up is the one that trains.
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < kSetups; ++i) {
    s = Setup{};
    const int64_t t0 = now_ns();
    s = make_setup(sp, o, steps, sp.checkpoints ? ckpt_u : "");
    setup_s.push_back(ms_between(t0, now_ns()) / 1000.0);
  }
  auto u = std::make_unique<Outcome>();
  run_untraced(sp, s, nullptr, *u);
  check_outcome(*u, steps, r, "untraced run");
  const double run_s = ms_between(u->run_t0_ns, u->run_t1_ns) / 1000.0;
  const double tps = tokens_of(sp, steps) / run_s;
  std::printf("# %d steps, %.0f tokens in %.3f s; final validation loss %.6f\n",
              steps, tokens_of(sp, steps), run_s, u->final_val);

  if (!o.trace) {
    add_end_to_end(r, median(setup_s), tps, peak_rss_bytes(),
                   std::vector<double>(u->gap_ms, u->gap_ms + u->gaps));
    return;
  }

  s = make_setup(sp, o, steps, sp.checkpoints ? ckpt_t : "");
  auto t = std::make_unique<Outcome>();
  Tracer tr;
  run_traced(sp, s, nullptr, tr, *t);
  check_outcome(*t, steps, r, "traced run");
  check_replay(*u, *t, r, o.workload.c_str());
  check_coverage(*t, r, o.workload.c_str());
  const double traced_s = ms_between(t->run_t0_ns, t->run_t1_ns) / 1000.0;

  std::vector<Metric> v = layer_values(sp, *t, steps);
  const char* shape = sp.fused ? "tensor.gemm_gflops.micro" : "tensor.gemm_gflops.train";
  v.push_back({shape, gemm_gflops(sp.fused ? "micro" : "train"), "GFLOP/s"});
  v.push_back({"trace_overhead_share", 1.0 - run_s / traced_s, "fraction"});
  r.metrics.insert(r.metrics.end(), v.begin(), v.end());
}

void run_ddp(const Spec& sp, const Options& o, int steps, Result& r) {
  SharedOutcomes sh(sp.ranks);
  const std::string ckpt_u = o.workdir + "/ckpt-untraced";
  const std::string ckpt_t = o.workdir + "/ckpt-traced";
  r.attempted = steps;
  int64_t call_ns = 0;

  // Set-up = rank spawn + every rank's build, until the slowest is ready.
  std::vector<double> setup_s;
  auto note_setup = [&]() {
    int64_t last = 0;
    for (int k = 0; k < sh.size(); ++k)
      last = std::max(last, sh[k].setup_done_ns);
    setup_s.push_back(ms_between(call_ns, last) / 1000.0);
  };
  for (int i = 0; i + 1 < kSetups; ++i) {
    if (!run_world(sp, o, steps, "", Mode::kSetupOnly, sh, &call_ns)) {
      r.fail_check("data-parallel world failed during set-up");
      r.failed = steps;
      return;
    }
    note_setup();
  }
  if (!run_world(sp, o, steps, ckpt_u, Mode::kUntraced, sh, &call_ns)) {
    r.fail_check("data-parallel world failed");
    r.failed = steps;
    return;
  }
  note_setup();
  auto u0 = std::make_unique<Outcome>(sh[0]);
  auto u1 = std::make_unique<Outcome>(sh[1]);
  check_outcome(*u0, steps, r, "rank 0");
  check_outcome(*u1, steps, r, "rank 1");
  if (!same_bits(*u0, *u1))
    r.fail_check("rank 0 and rank 1 loss streams differ");
  const double run_s =
      std::max(ms_between(u0->run_t0_ns, u0->run_t1_ns),
               ms_between(u1->run_t0_ns, u1->run_t1_ns)) / 1000.0;
  const double tps = tokens_of(sp, steps) / run_s;
  std::printf("# %d steps, %.0f tokens in %.3f s; final validation loss %.6f\n",
              steps, tokens_of(sp, steps), run_s, u0->final_val);

  if (!o.trace) {
    std::vector<double> gaps(u0->gap_ms, u0->gap_ms + u0->gaps);
    add_end_to_end(r, median(setup_s), tps,
                   std::max(u0->peak_rss, u1->peak_rss), gaps);
    return;
  }

  if (!run_world(sp, o, steps, ckpt_t, Mode::kTraced, sh, &call_ns)) {
    r.fail_check("data-parallel world failed in the traced run");
    r.failed = steps;
    return;
  }
  const double traced_spawn_ms =
      ms_between(call_ns, std::min(sh[0].body_start_ns, sh[1].body_start_ns));
  auto t0 = std::make_unique<Outcome>(sh[0]);
  auto t1 = std::make_unique<Outcome>(sh[1]);
  check_outcome(*t0, steps, r, "traced rank 0");
  check_outcome(*t1, steps, r, "traced rank 1");
  check_replay(*u0, *t0, r, "rank 0");
  check_replay(*u1, *t1, r, "rank 1");
  check_coverage(*t0, r, "rank 0");
  check_coverage(*t1, r, "rank 1");
  const double traced_s =
      std::max(ms_between(t0->run_t0_ns, t0->run_t1_ns),
               ms_between(t1->run_t0_ns, t1->run_t1_ns)) / 1000.0;
  std::vector<Metric> v =
      mean_of(layer_values(sp, *t0, steps), layer_values(sp, *t1, steps));
  v.push_back({"dist.spawn_ms", traced_spawn_ms, "ms"});
  v.push_back({"trace_overhead_share", 1.0 - run_s / traced_s, "fraction"});
  r.metrics.insert(r.metrics.end(), v.begin(), v.end());
}

}  // namespace

bool is_training_workload(const std::string& name) {
  return name == "pretrain-apollo" || name == "qstream-mini" ||
         name == "ddp2-apollo";
}

void run_training_workload(const Options& o, Result& r) {
  const Spec sp = spec_for(o.workload);
  const int steps = steps_for(sp, o.seconds);
  if (steps > kMaxSteps) {
    r.fail_check("--seconds asks for more steps than the benchmark records");
    return;
  }
  if (sp.ranks > 1)
    run_ddp(sp, o, steps, r);
  else
    run_single_process(sp, o, steps, r);
  std::error_code ec;
  fs::remove_all(o.workdir + "/ckpt-untraced", ec);
  fs::remove_all(o.workdir + "/ckpt-traced", ec);
}

double gemm_gflops(const std::string& shape) {
  constexpr int64_t k = 128, n = 344;
  const int64_t m = shape == "train" ? 256 : shape == "micro" ? 64 : 4;
  Rng rng(0x6e6d);
  Matrix a(m, k), b(n, k), c(m, n);
  a.fill_gaussian(rng, 0.f, 1.f);
  b.fill_gaussian(rng, 0.f, 1.f);
  // The decoder multiplies by pre-transposed (k × n) panels.
  std::vector<float> bt(static_cast<size_t>(k * n));
  for (int64_t i = 0; i < n; ++i)
    for (int64_t p = 0; p < k; ++p) bt[static_cast<size_t>(p * n + i)] = b.at(i, p);
  const simd::KernelTable& kt = simd::table();
  auto once = [&]() {
    if (shape != "decode") {
      matmul_bt(c, a, b);
      return;
    }
    // BatchDecoder::gemm_rows: zero C, then band-parallel rows.
    std::fill(c.data(), c.data() + m * n, 0.f);
    const int64_t grain =
        std::max<int64_t>(1, (int64_t{1} << 15) / std::max<int64_t>(1, 2 * k * n));
    core::parallel_for(
        m,
        [&](int64_t i0, int64_t i1) {
          kt.gemm(c.data(), n, a.data(), k, false, bt.data(), n, i0, i1, n, k);
        },
        grain, kt.gemm_row_align);
  };
  for (int i = 0; i < 20; ++i) once();
  // Median over batches of ~20 ms each.
  std::vector<double> rates;
  const double flops = 2.0 * static_cast<double>(m * n * k);
  for (int batch = 0; batch < 9; ++batch) {
    int64_t calls = 0;
    const int64_t t0 = now_ns();
    int64_t t1 = t0;
    while (t1 - t0 < 20'000'000) {
      for (int i = 0; i < 8; ++i) once();
      calls += 8;
      t1 = now_ns();
    }
    rates.push_back(flops * static_cast<double>(calls) /
                    static_cast<double>(t1 - t0));  // flop/ns = GFLOP/s
  }
  return median(rates);
}

}  // namespace perfbench
