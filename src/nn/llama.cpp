#include "nn/llama.h"
#include "tensor/check.h"
#include "tensor/matrix.h"

#include <cmath>
#include <string>
#include <utility>

namespace apollo::nn {

namespace {
int64_t per_layer_params(const LlamaConfig& c) {
  const int64_t h = c.hidden, it = c.intermediate;
  return 2 * h                    // two norms
         + 4 * h * h              // wq wk wv wo
         + 3 * h * it;            // gate, up, down
}
}  // namespace

int64_t LlamaConfig::param_count() const {
  return 2ll * vocab * hidden      // embedding + lm head
         + hidden                  // final norm
         + n_layers * per_layer_params(*this);
}

std::string config_error(const LlamaConfig& c) {
  const std::pair<const char*, int> sizes[] = {
      {"hidden", c.hidden}, {"n_heads", c.n_heads},
      {"intermediate", c.intermediate}, {"vocab", c.vocab},
      {"seq_len", c.seq_len}};
  for (const auto& [name, v] : sizes)
    if (v < 1)
      return std::string(name) + " must be positive, got " +
             std::to_string(v);
  if (c.n_layers < 0)
    return "n_layers must not be negative, got " +
           std::to_string(c.n_layers);
  if (c.hidden % c.n_heads != 0)
    return "n_heads " + std::to_string(c.n_heads) + " does not divide hidden " +
           std::to_string(c.hidden);
  if ((c.hidden / c.n_heads) % 2 != 0)
    return "head dimension hidden/n_heads = " +
           std::to_string(c.hidden / c.n_heads) +
           " is odd; rotary embeddings rotate pairs";
  return std::string();
}

// The proxy ladder: hidden sizes shrink but relative proportions follow the
// paper's Table 8 (depth grows with size; intermediate ≈ 8/3·hidden).
LlamaConfig llama_60m_proxy() {
  LlamaConfig c;
  c.vocab = 256; c.hidden = 32; c.intermediate = 88;
  c.n_heads = 4; c.n_layers = 2; c.seq_len = 32;
  return c;
}
LlamaConfig llama_130m_proxy() {
  LlamaConfig c;
  c.vocab = 256; c.hidden = 48; c.intermediate = 128;
  c.n_heads = 4; c.n_layers = 3; c.seq_len = 32;
  return c;
}
LlamaConfig llama_350m_proxy() {
  LlamaConfig c;
  c.vocab = 256; c.hidden = 64; c.intermediate = 176;
  c.n_heads = 4; c.n_layers = 4; c.seq_len = 32;
  return c;
}
LlamaConfig llama_1b_proxy() {
  LlamaConfig c;
  c.vocab = 256; c.hidden = 96; c.intermediate = 256;
  c.n_heads = 6; c.n_layers = 5; c.seq_len = 32;
  return c;
}
LlamaConfig llama_7b_proxy() {
  LlamaConfig c;
  c.vocab = 256; c.hidden = 128; c.intermediate = 344;
  c.n_heads = 8; c.n_layers = 6; c.seq_len = 32;
  return c;
}

LlamaModel::LlamaModel(const LlamaConfig& cfg, uint64_t seed) : cfg_(cfg) {
  const std::string bad_shape = config_error(cfg);
  APOLLO_CHECK_MSG(bad_shape.empty(), bad_shape.c_str());

  Rng rng(seed);
  const int64_t h = cfg.hidden, v = cfg.vocab, it = cfg.intermediate;

  tok_embed_ = add_param("tok_embed", v, h);
  tok_embed_->value.fill_gaussian(rng, 0.f, cfg.init_std);

  layers_.reserve(static_cast<size_t>(cfg.n_layers));
  for (int l = 0; l < cfg.n_layers; ++l) {
    const std::string pfx = "layer" + std::to_string(l) + ".";
    Layer lay{};
    lay.attn_norm = add_param(pfx + "attn_norm", 1, h, /*matrix=*/false);
    lay.attn_norm->value.fill(1.f);
    lay.wq = add_param(pfx + "wq", h, h);
    lay.wk = add_param(pfx + "wk", h, h);
    lay.wv = add_param(pfx + "wv", h, h);
    lay.wo = add_param(pfx + "wo", h, h);
    lay.mlp_norm = add_param(pfx + "mlp_norm", 1, h, /*matrix=*/false);
    lay.mlp_norm->value.fill(1.f);
    lay.w_gate = add_param(pfx + "w_gate", it, h);
    lay.w_up = add_param(pfx + "w_up", it, h);
    lay.w_down = add_param(pfx + "w_down", h, it);
    // Scaled init: residual-branch outputs get 1/sqrt(2·n_layers) damping
    // (GPT-2 style) for stable early training.
    const float res_std =
        cfg.init_std / std::sqrt(2.f * static_cast<float>(cfg.n_layers));
    for (Parameter* p : {lay.wq, lay.wk, lay.wv, lay.w_gate, lay.w_up})
      p->value.fill_gaussian(rng, 0.f, cfg.init_std);
    for (Parameter* p : {lay.wo, lay.w_down})
      p->value.fill_gaussian(rng, 0.f, res_std);
    layers_.push_back(lay);
  }

  final_norm_ = add_param("final_norm", 1, h, /*matrix=*/false);
  final_norm_->value.fill(1.f);
  lm_head_ = add_param("lm_head", v, h);
  lm_head_->value.fill_gaussian(rng, 0.f, cfg.init_std);
}

Parameter* LlamaModel::add_param(const std::string& name, int64_t rows,
                                 int64_t cols, bool matrix) {
  storage_.push_back(std::make_unique<Parameter>(name, rows, cols, matrix));
  return storage_.back().get();
}

ParamList LlamaModel::parameters() {
  ParamList out;
  out.reserve(storage_.size());
  for (auto& p : storage_) out.push_back(p.get());
  return out;
}

int64_t LlamaModel::param_count() const {
  int64_t n = 0;
  for (const auto& p : storage_) n += p->value.size();
  return n;
}

void LlamaModel::zero_grads() {
  for (auto& p : storage_) p->grad.zero();
}

ag::Var LlamaModel::forward(ag::Tape& tape, const std::vector<int32_t>& ids) {
  APOLLO_CHECK(ids.size() % static_cast<size_t>(cfg_.seq_len) == 0);
  auto leaf = [&](Parameter* p) { return tape.leaf(&p->value, &p->grad); };

  ag::Var x = tape.embedding(leaf(tok_embed_), ids);
  for (const Layer& lay : layers_) {
    // Attention block.
    ag::Var a = tape.rmsnorm(x, leaf(lay.attn_norm));
    ag::Var q = tape.rope(tape.matmul_bt(a, leaf(lay.wq)), cfg_.n_heads,
                          cfg_.seq_len, cfg_.rope_base);
    ag::Var k = tape.rope(tape.matmul_bt(a, leaf(lay.wk)), cfg_.n_heads,
                          cfg_.seq_len, cfg_.rope_base);
    ag::Var v = tape.matmul_bt(a, leaf(lay.wv));
    ag::Var att = tape.causal_attention(q, k, v, cfg_.n_heads, cfg_.seq_len);
    x = tape.add(x, tape.matmul_bt(att, leaf(lay.wo)));

    // SwiGLU MLP block.
    ag::Var m = tape.rmsnorm(x, leaf(lay.mlp_norm));
    ag::Var g = tape.silu(tape.matmul_bt(m, leaf(lay.w_gate)));
    ag::Var u = tape.matmul_bt(m, leaf(lay.w_up));
    x = tape.add(x, tape.matmul_bt(tape.mul(g, u), leaf(lay.w_down)));
  }
  ag::Var xf = tape.rmsnorm(x, leaf(final_norm_));
  return tape.matmul_bt(xf, leaf(lm_head_));
}

ag::Var LlamaModel::loss(ag::Tape& tape, const std::vector<int32_t>& ids,
                         const std::vector<int32_t>& targets) {
  return tape.cross_entropy(forward(tape, ids), targets);
}

std::vector<Matrix> LlamaModel::snapshot() const {
  std::vector<Matrix> out;
  out.reserve(storage_.size());
  for (const auto& p : storage_) out.push_back(p->value);
  return out;
}

void LlamaModel::restore(const std::vector<Matrix>& snap) {
  APOLLO_CHECK(snap.size() == storage_.size());
  for (size_t i = 0; i < snap.size(); ++i) storage_[i]->value = snap[i];
}

}  // namespace apollo::nn
