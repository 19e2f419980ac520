#include "core/apollo.h"

#include "nn/parameter.h"
#include "tensor/check.h"
#include "tensor/matrix.h"
#include "tensor/serialize.h"

#include "core/threadpool.h"
#include "linalg/svd.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "tensor/ops.h"

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
  // Everything order-sensitive happens here, iterating params in slot
  // order: seeder_ draws, refresh decisions, local step counters. This
  // keeps the RNG stream identical whether step_param() is later called in
  // slot order (compat step()) or in backward-completion order (fused).
  for (size_t i = 0; i < params.size(); ++i) {
    nn::Parameter* p = params[i];
    slot_of_[p] = i;
    if (!projected(*p)) continue;  // dense fallback: no per-slot decisions
    State& s = states_[i];
    if (s.local_t == 0) {
      s.side = natural_side(p->value.rows(), p->value.cols());
      s.proj_seed = seeder_.split();
    }
    s.refresh = s.local_t % cfg_.update_freq == 0;
    ++s.local_t;
    if (s.refresh && obs::trace_enabled())
      obs::trace_instant("proj_refresh", "optim");
    // Random projection seeds are re-drawn every update_freq steps.
    if (cfg_.proj == optim::ProjKind::kRandom && s.refresh && s.local_t > 1)
      s.proj_seed = seeder_.split();
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
  const int64_t r = cfg_.rank;

  // Step 1: project the gradient into the rank-r auxiliary space. The
  // refresh decision and any seed re-draw already happened in begin_step().
  Matrix rg;
  if (cfg_.proj == optim::ProjKind::kRandom) {
    const int64_t small_dim =
        s.side == ProjectionSide::kLeft ? g.rows() : g.cols();
    // Regenerated from the seed every step — never stored.
    Matrix proj = gaussian_projection(r, small_dim, s.proj_seed);
    rg = project(g, proj, s.side);
  } else {
    if (s.refresh) {
      s.svd_projector = s.side == ProjectionSide::kLeft
                            ? svd_left_projector(g, r)
                            : svd_right_projector(g, r);
    }
    rg = project(g, s.svd_projector, s.side);
  }

  // Step 2: AdamW moments in the auxiliary space only.
  if (s.m.size() == 0) {
    s.m.reshape_discard(rg.rows(), rg.cols());
    s.v.reshape_discard(rg.rows(), rg.cols());
  }
  const float b1 = cfg_.hyper.beta1, b2 = cfg_.hyper.beta2;
  const optim::BiasCorrection bc = optim::bias_correction(cfg_.hyper, s.local_t);
  const float bc1 = bc.c1, bc2 = bc.c2;
  Matrix rtilde(rg.rows(), rg.cols());
  core::parallel_for(
      rg.size(),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i) {
          s.m[i] = b1 * s.m[i] + (1.f - b1) * rg[i];
          s.v[i] = b2 * s.v[i] + (1.f - b2) * rg[i] * rg[i];
          rtilde[i] =
              (s.m[i] / bc1) / (std::sqrt(s.v[i] / bc2) + cfg_.hyper.eps);
        }
      },
      /*grain=*/1 << 13);

  // Step 3: structured scaling factors from the compressed space.
  Matrix update = g;
  if (cfg_.granularity == ScalingGranularity::kChannel) {
    std::vector<float> num, den;
    if (s.side == ProjectionSide::kLeft) {
      num = col_norms(rtilde);
      den = col_norms(rg);
    } else {
      num = row_norms(rtilde);
      den = row_norms(rg);
    }
    std::vector<float>& sf = s.last_scaling;
    sf.resize(num.size());
    for (size_t j = 0; j < sf.size(); ++j)
      sf[j] = den[j] > 1e-30f ? num[j] / den[j] : 0.f;
    if (s.side == ProjectionSide::kLeft)
      scale_cols_inplace(update, sf);
    else
      scale_rows_inplace(update, sf);
  } else {
    const double num = frobenius_norm(rtilde);
    const double den = frobenius_norm(rg);
    const float sf = den > 1e-30 ? static_cast<float>(num / den) : 0.f;
    s.last_scaling.assign(1, sf);
    scale_inplace(update, sf);
  }

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
  for (const State& s : states_) {
    if (s.local_t == 0) continue;  // slot never projected (dense or unseen)
    b += (s.m.size() + s.v.size()) * static_cast<int64_t>(sizeof(float));
    b += s.svd_projector.size() * static_cast<int64_t>(sizeof(float));
    b += 8;  // projection seed
    if (cfg_.use_norm_limiter)
      b += optim::NormGrowthLimiter::state_floats() *
           static_cast<int64_t>(sizeof(float));
  }
  return b;
}

// Pure serialization: `params` only fixes key order, shapes are validated
// by read_matrix/write_matrix and the cross-moment check in merge_state.
// lint:allow(check-shape-preconditions)
bool Apollo::save_state(std::FILE* f, const nn::ParamList& params) const {
  if (!write_pod(f, t_) || !write_rng_state(f, seeder_.state()))
    return false;
  for (size_t i = 0; i < params.size(); ++i) {
    // A slot is "present" once it has been projected at least once — the
    // byte layout matches the old pointer-keyed format exactly (v3
    // checkpoints stay readable). Under ZeRO-1 sharding, begin_step still
    // advances local_t for *every* projected slot (the RNG stream must be
    // rank-independent) but only owned slots carry moments, so a shard file
    // records exactly the owned slots and the union over ranks is total.
    const State* s = i < states_.size() && states_[i].local_t > 0 &&
                             owns_slot(static_cast<int>(i))
                         ? &states_[i]
                         : nullptr;
    const uint8_t present = s != nullptr ? 1 : 0;
    if (!write_pod(f, present)) return false;
    if (!present) continue;
    const uint8_t side = s->side == ProjectionSide::kLeft ? 0 : 1;
    const double nl = s->limiter.tracked_norm();
    if (!write_pod(f, side) || !write_pod(f, s->proj_seed) ||
        !write_pod(f, s->local_t) || !write_pod(f, nl) ||
        !write_matrix(f, s->svd_projector) || !write_matrix(f, s->m) ||
        !write_matrix(f, s->v))
      return false;
  }
  return dense_.save(f, static_cast<int64_t>(params.size()));
}

// A full load is a merge into cleared state; merge_state parses and checks
// every record.
// lint:allow(check-shape-preconditions)
bool Apollo::load_state(std::FILE* f, const nn::ParamList& params) {
  states_.clear();
  dense_.reset();
  return merge_state(f, params);
}

// Shard merge: every present record carries metadata this rank must know
// even for slots it does not own (projection seed, per-slot step count,
// side, limiter norm — begin_step would otherwise redraw seeds and diverge
// from the pre-crash RNG stream), but the heavy moment matrices are kept
// only for owned slots, so resident bytes stay at 1/R after merging all
// shards. Works across a world-size change: ownership is re-evaluated under
// the *current* shard configuration.
// lint:allow(check-shape-preconditions)
bool Apollo::merge_state(std::FILE* f, const nn::ParamList& params) {
  Rng::State rs;
  if (!read_pod(f, t_) || !read_rng_state(f, rs)) return false;
  seeder_.set_state(rs);  // identical in every shard of a step
  if (states_.size() < params.size()) states_.resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    uint8_t present = 0;
    if (!read_pod(f, present)) return false;
    if (!present) continue;
    State& s = states_[i];
    uint8_t side = 0;
    double nl = -1.0;
    Matrix proj, m, v;
    if (!read_pod(f, side) || !read_pod(f, s.proj_seed) ||
        !read_pod(f, s.local_t) || !read_pod(f, nl) ||
        !read_matrix(f, proj) || !read_matrix(f, m) || !read_matrix(f, v))
      return false;
    s.side = side == 0 ? ProjectionSide::kLeft : ProjectionSide::kRight;
    APOLLO_CHECK_SAME_SHAPE(m, v);
    s.limiter = optim::NormGrowthLimiter(cfg_.nl_gamma);
    s.limiter.set_tracked_norm(nl);
    if (owns_slot(static_cast<int>(i))) {
      s.svd_projector = std::move(proj);
      s.m = std::move(m);
      s.v = std::move(v);
    }
  }
  return dense_.load_merge(f, static_cast<int64_t>(params.size()),
                           shard_rank_, shard_world_);
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
  cfg_.nl_gamma = 1.f + (cfg_.nl_gamma - 1.f) * factor;
  for (State& s : states_) s.limiter.set_gamma(cfg_.nl_gamma);
  return true;
}

// Read-only instrumentation lookup; unknown pointers return nullptr.
// lint:allow(check-shape-preconditions)
const std::vector<float>* Apollo::last_scaling(
    const nn::Parameter* p) const {
  auto it = slot_of_.find(p);
  if (it == slot_of_.end() || it->second >= states_.size()) return nullptr;
  const State& s = states_[it->second];
  return s.last_scaling.empty() ? nullptr : &s.last_scaling;
}

}  // namespace apollo::core
