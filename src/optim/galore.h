// GaLore-family low-rank-gradient optimizers (Zhao et al., 2024) and its
// descendants Fira (Chen et al., 2024) and Flora (Hao et al., 2024).
//
// All three share the same skeleton: project each 2-D gradient into a
// rank-r subspace, run AdamW *in that subspace*, and back-project the
// normalized update. They differ in:
//   - projector: GaLore/Fira use the top-r singular vectors (periodic SVD,
//     the cost APOLLO eliminates); Flora / "GaLore w. RP" use a seeded
//     Gaussian projection regenerated on demand (no stored projector);
//   - Fira adds the full-rank error residual (G − P⁺PG), rescaled by the
//     per-channel low-rank norm ratio and guarded by the norm-growth
//     limiter, to simulate full-rank updates;
//   - the 8-bit variant keeps the subspace moments at the int8 rung of
//     AdamMoments (Table 3's 8-bit GaLore baseline).
// 1-D parameters fall back to dense AdamW, as in the reference code.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "nn/parameter.h"
#include "optim/dense_adam.h"
#include "optim/optimizer.h"
#include "optim/subspace.h"

namespace apollo::optim {

struct GaloreConfig {
  int64_t rank = 4;
  int update_freq = 200;   // T: projector refresh period
  float scale = 0.25f;     // GaLore's α
  ProjKind proj = ProjKind::kSvd;
  // GoLore (He et al., 2024): SVD projectors early in training, cheap
  // random projections once gradients stabilize. <0 disables switching.
  int64_t switch_to_random_after = -1;
  bool fira_residual = false;    // add Fira's scaled error residual
  bool quantize_states = false;  // 8-bit subspace moments
  AdamHyper hyper;
  uint64_t seed = 1234;
};

class GaLore : public Optimizer {
 public:
  GaLore(const GaloreConfig& cfg, std::string display_name = "GaLore");

  // All RNG draws (initial and refresh projection seeds) happen here, in
  // slot order, so step_param() is order-independent — the fused backward
  // path may deliver parameters in completion order.
  void begin_step(const nn::ParamList& params) override;
  void step_param(nn::Parameter& p, int slot) override;
  std::string name() const override { return display_name_; }
  int64_t state_bytes() const override;

  // Convenience constructors matching the paper's baseline names.
  static std::unique_ptr<GaLore> galore(GaloreConfig cfg) {
    cfg.proj = ProjKind::kSvd;
    cfg.fira_residual = false;
    return std::make_unique<GaLore>(cfg, "GaLore");
  }
  static std::unique_ptr<GaLore> galore_rp(GaloreConfig cfg) {
    cfg.proj = ProjKind::kRandom;
    cfg.fira_residual = false;
    return std::make_unique<GaLore>(cfg, "GaLore w. RP");
  }
  static std::unique_ptr<GaLore> flora(GaloreConfig cfg) {
    cfg.proj = ProjKind::kRandom;
    cfg.fira_residual = false;
    return std::make_unique<GaLore>(cfg, "Flora");
  }
  static std::unique_ptr<GaLore> fira(GaloreConfig cfg) {
    cfg.proj = ProjKind::kSvd;
    cfg.fira_residual = true;
    return std::make_unique<GaLore>(cfg, "Fira");
  }
  static std::unique_ptr<GaLore> galore_8bit(GaloreConfig cfg) {
    cfg.proj = ProjKind::kSvd;
    cfg.quantize_states = true;
    return std::make_unique<GaLore>(cfg, "8-bit GaLore");
  }
  // GoLore: SVD for the first `switch_after` steps, random projection after.
  static std::unique_ptr<GaLore> golore(GaloreConfig cfg,
                                        int64_t switch_after) {
    cfg.proj = ProjKind::kSvd;
    cfg.fira_residual = false;
    cfg.switch_to_random_after = switch_after;
    return std::make_unique<GaLore>(cfg, "GoLore");
  }

 protected:
  const char* step_trace_name() const override { return "GaLore::step"; }

 private:
  // Pure routing predicate — nothing shape-dependent to verify.
  // lint:allow(check-shape-preconditions)
  bool projected(const nn::Parameter& p) const {
    return p.matrix_shaped &&
           std::min(p.value.rows(), p.value.cols()) > cfg_.rank;
  }
  void update_matrix_param(nn::Parameter* p, SubspaceSlot& s);

  GaloreConfig cfg_;
  std::string display_name_;
  DenseAdamCore dense_;  // 1-D fallback
  std::vector<SubspaceSlot> states_;  // indexed by slot
  Rng seeder_;
};

}  // namespace apollo::optim
