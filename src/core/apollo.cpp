#include "core/apollo.h"

#include "nn/parameter.h"
#include "tensor/check.h"
#include "tensor/matrix.h"
#include "tensor/serialize.h"

#include "core/threadpool.h"
#include "linalg/projection.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "optim/adam_moments.h"
#include "optim/norm_limiter.h"

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
    // A fresh slot's limiter starts at the configured γ (merge_state sets
    // resumed slots', tighten_norm_limiter every slot's).
    if (s.local_t == 0) s.limiter.set_gamma(cfg_.nl_gamma);
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

// Pure serialization: `params` only fixes key order; merge_state checks
// every record it reads back against its slot.
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
        !write_matrix(f, s->svd_projector) || !s->moments.save(f))
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
// the *current* shard configuration. Every record, owned or not, must
// describe state its slot could hold — a projected weight, side 0 or 1, at
// least one step, the projector an SVD refresh would give it (none under
// random projection) and r×n / m×r moments — so a crafted blob fails the
// merge on every rank instead of sizing a later step's reads.
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
    const Matrix& w = params[i]->value;
    uint8_t side = 0;
    uint64_t seed = 0;
    int64_t local_t = 0;
    double nl = -1.0;
    Matrix proj;
    if (!read_pod(f, side) || !read_pod(f, seed) || !read_pod(f, local_t) ||
        !read_pod(f, nl) || !read_matrix(f, proj))
      return false;
    if (!projected(*params[i]) || side > 1 || local_t < 1) return false;
    const bool left = side == 0;
    const int64_t r = cfg_.rank;
    const bool svd = cfg_.proj == optim::ProjKind::kSvd;
    if (proj.rows() != (svd ? r : 0) ||
        proj.cols() != (svd ? (left ? w.rows() : w.cols()) : 0))
      return false;
    optim::AdamMoments moments;
    if (!moments.load(f, left ? r : w.rows(), left ? w.cols() : r,
                      /*may_be_empty=*/false))
      return false;
    State& s = states_[i];
    s.side = left ? ProjectionSide::kLeft : ProjectionSide::kRight;
    s.proj_seed = seed;
    s.local_t = local_t;
    s.limiter = optim::NormGrowthLimiter(cfg_.nl_gamma);
    s.limiter.set_tracked_norm(nl);
    if (owns_slot(static_cast<int>(i))) {
      s.svd_projector = std::move(proj);
      s.moments = std::move(moments);
    }
  }
  return dense_.load_merge(f, params, shard_rank_, shard_world_);
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

// Read-only instrumentation lookup; unknown slots return nullptr.
// lint:allow(check-shape-preconditions)
const std::vector<float>* Apollo::last_scaling(int slot) const {
  if (slot < 0 || static_cast<size_t>(slot) >= states_.size()) return nullptr;
  const std::vector<float>& s = states_[static_cast<size_t>(slot)].last_scaling;
  return s.empty() ? nullptr : &s;
}

}  // namespace apollo::core
