// Fig. 4 / Fig. 8 reproduction: the channel-wise gradient-scaling factors of
// APOLLO at rank n/8 and n/4, measured against the full-rank structured
// AdamW golden on the *same* gradient stream (one live 350M-proxy training
// run; the APOLLO instances consume shadow copies of each gradient). The
// paper pins trajectories the same way (footnote 1 of Appendix A.2).
//
// Expected shape (paper/Theorem A.4): raw compressed factors are √(r/n)-fold
// smaller than full-rank — s(full) : s(n/4) : s(n/8) ≈ 2√2 : √2 : 1 in the
// paper's normalization — so the normalized ratios √(n/r)·s^R/s reported
// here sit near 1.0 across layer types and depths.
#include <cmath>
#include <map>

#include "core/structured_adamw.h"
#include "exp_common.h"

using namespace apollo;
using namespace apollo::bench;

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  obs::BenchReport::open("fig4_scaling_ratio", quick_mode());
  const auto cfg = nn::llama_350m_proxy();
  const int nsteps = steps(240);
  std::printf("Fig. 4 / Fig. 8 — channel scaling-factor ratio vs. theory on "
              "the 350M proxy (%d steps)\n", nsteps);
  std::printf("theory: sqrt(n/r)*s^R/s = 1;  raw ratios 1 : sqrt2 : 2sqrt2 "
              "for r = n/4 : n/8 : full\n");
  print_rule(100);

  // One live training run drives the gradient stream.
  nn::LlamaModel model(cfg, 42);
  core::StructuredAdamWConfig gcfg;
  gcfg.use_norm_limiter = false;
  core::StructuredAdamW golden(gcfg);

  // Shadow parameters consuming identical gradients for the APOLLO ranks.
  auto params = model.parameters();
  std::vector<std::unique_ptr<nn::Parameter>> shadow4, shadow8;
  nn::ParamList s4list, s8list;
  for (auto* p : params) {
    shadow4.push_back(std::make_unique<nn::Parameter>(
        p->name, p->value.rows(), p->value.cols(), p->matrix_shaped));
    shadow4.back()->value = p->value;
    s4list.push_back(shadow4.back().get());
    shadow8.push_back(std::make_unique<nn::Parameter>(
        p->name, p->value.rows(), p->value.cols(), p->matrix_shaped));
    shadow8.back()->value = p->value;
    s8list.push_back(shadow8.back().get());
  }
  core::ApolloConfig a4;
  a4.rank = cfg.hidden / 4;
  a4.use_norm_limiter = false;
  auto apollo4 = core::Apollo::standard(a4);
  core::ApolloConfig a8;
  a8.rank = cfg.hidden / 8;
  a8.use_norm_limiter = false;
  auto apollo8 = core::Apollo::standard(a8);

  data::SyntheticCorpus corpus({});
  data::BatchLoader loader(corpus, 4, cfg.seq_len, 7);
  std::vector<int32_t> ids, targets;
  const float lr = 1e-3f;
  golden.set_lr(lr);
  apollo4->set_lr(lr);
  apollo8->set_lr(lr);

  for (int step = 0; step < nsteps; ++step) {
    loader.next(ids, targets);
    model.zero_grads();
    ag::Tape tape;
    tape.backward(model.loss(tape, ids, targets));
    for (size_t i = 0; i < params.size(); ++i) {
      shadow4[i]->grad = params[i]->grad;
      shadow8[i]->grad = params[i]->grad;
    }
    golden.step(params);
    apollo4->step(s4list);
    apollo8->step(s8list);
  }

  // Group normalized ratios by layer bucket (early/middle/late) × module.
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      groups;
  for (size_t i = 0; i < params.size(); ++i) {
    if (!params[i]->matrix_shaped) continue;
    const int slot = static_cast<int>(i);
    const auto* sg = golden.last_scaling(slot);
    const auto* s4 = apollo4->last_scaling(slot);
    const auto* s8 = apollo8->last_scaling(slot);
    if (sg == nullptr || s4 == nullptr || s8 == nullptr) continue;

    std::string bucket = "embed/head";
    const std::string& name = params[i]->name;
    if (name.rfind("layer", 0) == 0) {
      const int layer = std::atoi(name.c_str() + 5);
      const char* depth = layer < cfg.n_layers / 3 ? "early"
                          : layer < 2 * cfg.n_layers / 3 ? "middle"
                                                         : "late";
      const bool attn = name.find(".w_") == std::string::npos;
      bucket = std::string(depth) + (attn ? " attention" : " mlp");
    }
    const double dim = static_cast<double>(
        std::min(params[i]->value.rows(), params[i]->value.cols()));
    auto& [r4vec, r8vec] = groups[bucket];
    for (size_t j = 0; j < sg->size(); ++j) {
      if ((*sg)[j] < 1e-8f) continue;
      r4vec.push_back(std::sqrt(4.0) * (*s4)[j] / (*sg)[j]);
      r8vec.push_back(std::sqrt(8.0) * (*s8)[j] / (*sg)[j]);
    }
    (void)dim;
  }

  std::printf("%-18s %26s %26s\n", "layer group",
              "median sqrt(n/r)*s/s  r=n/4", "median sqrt(n/r)*s/s  r=n/8");
  print_rule(100);
  for (const auto& [bucket, vecs] : groups)
    std::printf("%-18s %26.3f %26.3f\n", bucket.c_str(), median(vecs.first),
                median(vecs.second));
  print_rule(100);
  std::printf("(values near 1.0 validate Theorem A.4: the same gradient "
              "stream feeds full-rank and compressed moments)\n");
  return 0;
}
