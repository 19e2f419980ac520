#include "core/apollo.h"

#include "nn/parameter.h"
#include "tensor/check.h"
#include "tensor/matrix.h"

#include "core/threadpool.h"
#include "linalg/projection.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "optim/adam_moments.h"
#include "optim/norm_limiter.h"
#include "optim/state_codec.h"

namespace apollo::core {

Apollo::Apollo(const ApolloConfig& cfg, std::string display_name)
    : cfg_(cfg), display_name_(std::move(display_name)), dense_(cfg.hyper),
      seeder_(cfg.seed) {
  APOLLO_CHECK(cfg.rank >= 1);
  if (display_name_.empty()) {
    display_name_ = cfg.granularity == ScalingGranularity::kTensor &&
                            cfg.rank == 1
                        ? "APOLLO-Mini"
                        : "APOLLO";
  }
}

void Apollo::begin_step(const nn::ParamList& params) {
  Optimizer::begin_step(params);
  if (states_.size() < params.size()) states_.resize(params.size());
  telemetry_ = obs::telemetry_enabled();
  stats_ = StepStats{};
  for (size_t i = 0; i < params.size(); ++i) {
    const nn::Parameter& p = *params[i];
    if (!projected(p)) continue;  // dense fallback: no per-slot decisions
    State& s = states_[i];
    // Fresh, resumed and tightened slots alike run at the configured γ.
    s.limiter.set_gamma(cfg_.nl_gamma);
    optim::advance_slot(s, p.value.rows(), p.value.cols(), cfg_.proj,
                        cfg_.update_freq, /*random_after=*/-1, seeder_);
  }
}

void Apollo::step_param(nn::Parameter& p, int slot) {
  APOLLO_CHECK_SAME_SHAPE(p.value, p.grad);
  if (!projected(p)) {
    dense_.update(slot, p.value, p.grad, lr_, t_);
    return;
  }
  update_matrix_param(&p, states_[static_cast<size_t>(slot)],
                      telemetry_ ? &stats_ : nullptr);
}

void Apollo::end_step(const nn::ParamList& params) {
  if (telemetry_) {
    obs::Telemetry& tel = obs::telemetry();
    tel.set("opt.clip_fraction",
            stats_.sites > 0 ? static_cast<double>(stats_.clipped) /
                                   static_cast<double>(stats_.sites)
                             : 0.0);
    tel.set_int("opt.proj_refreshes", stats_.refreshes);
    obs::Registry::instance()
        .counter("optim.apollo.proj_refreshes")
        .add(stats_.refreshes);
  }
  Optimizer::end_step(params);  // finite check under APOLLO_CHECK_FINITE
}

void Apollo::update_matrix_param(nn::Parameter* p, State& s,
                                 StepStats* stats) {
  APOLLO_CHECK_SAME_SHAPE(p->value, p->grad);
  const Matrix& g = p->grad;

  // Step 1: project the gradient into the rank-r auxiliary space. The
  // refresh decision and any seed re-draw already happened in begin_step().
  Matrix scratch;
  const Matrix rg =
      project(g, optim::slot_projector(s, g, cfg_.rank, scratch), s.side);

  // Step 2: AdamW moments in the auxiliary space only.
  const Matrix rtilde = optim::subspace_adam(s, rg, cfg_.hyper);

  // Step 3: structured scaling factors from the compressed space, applied
  // to the raw full-rank gradient.
  Matrix update = g;
  apply_structured_scaling(update, rtilde, rg, s.side, cfg_.granularity,
                           s.last_scaling);

  const bool clipped = cfg_.use_norm_limiter ? s.limiter.apply(update) : false;
  if (stats != nullptr) {
    ++stats->sites;
    if (clipped) ++stats->clipped;
    if (s.refresh) ++stats->refreshes;
    // Distribution of the structured scaling factors s_j (Fig. 4 / Fig. 8):
    // committed per step as s_min / s_med / s_max / s_n.
    obs::telemetry().sample("opt.s", s.last_scaling.data(),
                            s.last_scaling.size());
  }

  // Step 4: update the weight in the original space (decoupled decay).
  const float wd = cfg_.hyper.weight_decay;
  const float eta = lr_ * cfg_.scale;
  core::parallel_for(
      p->value.size(),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
          p->value[i] -= eta * update[i] + lr_ * wd * p->value[i];
      },
      /*grain=*/1 << 13);
}

int64_t Apollo::state_bytes() const {
  int64_t b = dense_.state_bytes();
  for (const State& s : states_)
    // Slots never projected (dense or unseen) hold nothing.
    if (s.local_t > 0) b += optim::slot_bytes(s, cfg_.use_norm_limiter);
  return b;
}

void Apollo::state_fields(optim::StateCodec& c) {
  c.rng(seeder_);
  c.slots(states_, [&](State& s, const nn::Parameter& p) {
    optim::subspace_fields(c, s, p.value, projected(p), cfg_.rank, cfg_.proj,
                           /*random_after=*/-1,
                           optim::MomentPrecision::kFp32);
  });
  dense_.state_fields(c);
}

int64_t Apollo::reseed_projection(uint64_t salt) {
  if (cfg_.proj != optim::ProjKind::kRandom) return 0;
  int64_t n = 0;
  // Each seed is remixed independently (SplitMix64 finalizer over the old
  // seed and the salt), so the result is deterministic regardless of
  // iteration order.
  for (State& s : states_) {
    if (s.local_t == 0) continue;  // never projected: no seed to remix
    uint64_t z = s.proj_seed + 0x9E3779B97F4A7C15ull * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    s.proj_seed = z ^ (z >> 31);
    ++n;
  }
  return n;
}

bool Apollo::tighten_norm_limiter(float factor) {
  if (!cfg_.use_norm_limiter) return false;
  APOLLO_CHECK(factor > 0.f && factor <= 1.f);
  // Every slot takes the new γ at the next begin_step.
  cfg_.nl_gamma = 1.f + (cfg_.nl_gamma - 1.f) * factor;
  return true;
}

// Read-only instrumentation lookup; unknown slots return nullptr.
// lint:allow(check-shape-preconditions)
const std::vector<float>* Apollo::last_scaling(int slot) const {
  if (slot < 0 || static_cast<size_t>(slot) >= states_.size()) return nullptr;
  const std::vector<float>& s = states_[static_cast<size_t>(slot)].last_scaling;
  return s.empty() ? nullptr : &s;
}

}  // namespace apollo::core
