#include "optim/galore.h"

#include "core/threadpool.h"
#include "nn/parameter.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "optim/adam_moments.h"
#include "tensor/check.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"

namespace apollo::optim {

GaLore::GaLore(const GaloreConfig& cfg, std::string display_name)
    : cfg_(cfg), display_name_(std::move(display_name)), dense_(cfg.hyper),
      seeder_(cfg.seed) {
  APOLLO_CHECK(cfg.rank >= 1);
}

void GaLore::begin_step(const nn::ParamList& params) {
  Optimizer::begin_step(params);
  if (states_.size() < params.size()) states_.resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const nn::Parameter& p = *params[i];
    if (!projected(p)) continue;  // dense fallback: no per-slot decisions
    if (advance_slot(states_[i], p.value.rows(), p.value.cols(), cfg_.proj,
                     cfg_.update_freq, cfg_.switch_to_random_after,
                     seeder_) &&
        obs::telemetry_enabled())
      obs::Registry::instance()
          .counter("optim.galore.proj_refreshes")
          .add(1);
  }
}

void GaLore::step_param(nn::Parameter& p, int slot) {
  APOLLO_CHECK_SAME_SHAPE(p.value, p.grad);
  if (!projected(p)) {
    // 1-D gains and matrices already at/below the target rank get dense
    // AdamW (projection would not save anything).
    dense_.update(slot, p.value, p.grad, lr_, t_);
    return;
  }
  update_matrix_param(&p, states_[static_cast<size_t>(slot)]);
}

void GaLore::update_matrix_param(nn::Parameter* p, SubspaceSlot& s) {
  APOLLO_CHECK_SAME_SHAPE(p->value, p->grad);
  const Matrix& g = p->grad;
  Matrix scratch;
  const Matrix& proj = slot_projector(s, g, cfg_.rank, scratch);

  // --- subspace AdamW ------------------------------------------------------
  const Matrix rg = project(g, proj, s.side);
  const Matrix norm_update =
      subspace_adam(s, rg, cfg_.hyper,
                    cfg_.quantize_states ? MomentPrecision::kInt8
                                         : MomentPrecision::kFp32);

  // --- back-projected update ----------------------------------------------
  Matrix update = project_back(norm_update, proj, s.side);
  scale_inplace(update, cfg_.scale);

  if (cfg_.fira_residual) {
    // Fira: add (G − P⁺PG) rescaled per channel by ||Ñ[:,j]||/||R[:,j]||,
    // guarded by the norm-growth limiter.
    Matrix residual = g;
    sub_inplace(residual, project_back(rg, proj, s.side));
    std::vector<float> phi;
    apply_structured_scaling(residual, norm_update, rg, s.side,
                             ScalingGranularity::kChannel, phi);
    const bool clipped = s.limiter.apply(residual);
    if (clipped && obs::telemetry_enabled())
      obs::Registry::instance().counter("optim.fira.limiter_clips").add(1);
    add_inplace(update, residual);
  }

  // --- apply ----------------------------------------------------------------
  const float wd = cfg_.hyper.weight_decay;
  core::parallel_for(
      p->value.size(),
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
          p->value[i] -= lr_ * (update[i] + wd * p->value[i]);
      },
      /*grain=*/1 << 13);
}

int64_t GaLore::state_bytes() const {
  int64_t b = dense_.state_bytes();
  for (const SubspaceSlot& s : states_)
    // Slots never projected (dense or unseen) hold nothing.
    if (s.local_t > 0) b += slot_bytes(s, cfg_.fira_residual);
  return b;
}

}  // namespace apollo::optim
