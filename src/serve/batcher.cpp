#include "serve/batcher.h"

#include <algorithm>
#include <cmath>

#include "core/threadpool.h"
#include "obs/trace.h"
#include "tensor/check.h"
#include "tensor/matrix.h"
#include "tensor/simd/simd.h"

namespace apollo::serve {

BatchDecoder::BatchDecoder(nn::LlamaModel& model, int max_batch)
    : model_(model),
      max_batch_(max_batch),
      arena_(max_batch, model.config().n_layers, model.config().seq_len,
             model.config().hidden) {
  APOLLO_CHECK(max_batch > 0);
  const auto& cfg = model.config();
  const int64_t hidden = cfg.hidden;
  const int64_t head_dim = hidden / cfg.n_heads;
  APOLLO_CHECK(head_dim % 2 == 0);
  const int64_t half = head_dim / 2;
  const size_t mb = static_cast<size_t>(max_batch);

  lanes_.resize(mb);
  outputs_.resize(mb);
  rows_.resize(mb);

  // RoPE table, computed with the same double-precision expression as the
  // tape forward's table (autograd/ops_attention.cpp), so both paths rotate
  // with bit-identical cos/sin factors.
  rope_cos_.resize(static_cast<size_t>(cfg.seq_len) * static_cast<size_t>(half));
  rope_sin_.resize(rope_cos_.size());
  for (int pos = 0; pos < cfg.seq_len; ++pos) {
    for (int64_t i = 0; i < half; ++i) {
      const double freq = std::pow(
          static_cast<double>(cfg.rope_base),
          -2.0 * static_cast<double>(i) / static_cast<double>(head_dim));
      const double angle = static_cast<double>(pos) * freq;
      const size_t at = static_cast<size_t>(pos) * static_cast<size_t>(half) +
                        static_cast<size_t>(i);
      rope_cos_[at] = static_cast<float>(std::cos(angle));
      rope_sin_[at] = static_cast<float>(std::sin(angle));
    }
  }

  const size_t h = static_cast<size_t>(hidden);
  const size_t inter = static_cast<size_t>(cfg.intermediate);
  x_.resize(mb * h);
  xn_.resize(mb * h);
  q_.resize(mb * h);
  k_.resize(mb * h);
  v_.resize(mb * h);
  att_.resize(mb * h);
  proj_.resize(mb * h);
  gate_.resize(mb * inter);
  up_.resize(mb * inter);
  sig_.resize(mb * inter);
  logits_.resize(mb * static_cast<size_t>(cfg.vocab));
  scores_.resize(mb * static_cast<size_t>(cfg.seq_len));
  cand_.resize(static_cast<size_t>(cfg.vocab));
  mass_.resize(static_cast<size_t>(cfg.vocab));
  probs_.resize(static_cast<size_t>(cfg.vocab));
}

int BatchDecoder::admit(const std::vector<int32_t>& prompt,
                        const GenParams& params) {
  if (active_ == max_batch_) return -1;
  int idx = -1;
  for (int i = 0; i < max_batch_; ++i) {
    if (!lanes_[static_cast<size_t>(i)].occupied) {
      idx = i;
      break;
    }
  }
  APOLLO_CHECK(idx >= 0);
  const int vocab = model_.config().vocab;
  for (int32_t t : prompt) APOLLO_CHECK(t >= 0 && t < vocab);

  Lane& lane = lanes_[static_cast<size_t>(idx)];
  lane.occupied = true;
  lane.prompt = prompt.empty() ? std::vector<int32_t>{0} : prompt;
  lane.prompt_pos = 0;
  lane.position = 0;
  lane.generated = 0;
  lane.last_token = 0;
  lane.params = params;
  lane.rng = Rng(params.seed);
  outputs_[static_cast<size_t>(idx)] = DecodeOut{};
  ++active_;
  return idx;
}

void BatchDecoder::release(int lane) {
  APOLLO_CHECK(lane >= 0 && lane < max_batch_);
  Lane& ln = lanes_[static_cast<size_t>(lane)];
  APOLLO_CHECK(ln.occupied);
  ln.occupied = false;
  arena_.clear_slot(lane);
  --active_;
}

void BatchDecoder::gemm_rows(float* c, const float* a, const Matrix& w,
                             int64_t rows) const {
  const int64_t n = w.rows(), k = w.cols();
  std::fill(c, c + rows * n, 0.f);
  const simd::KernelTable& kt = simd::table();
  // Same grain policy as tensor::matmul: don't split below ~32K flops/lane.
  const int64_t grain = std::max<int64_t>(
      1, (int64_t{1} << 15) / std::max<int64_t>(1, 2 * k * n));
  core::parallel_for(
      rows,
      [&](int64_t i0, int64_t i1) {
        kt.gemm_bt(c, n, a, k, w.data(), k, i0, i1, n, k);
      },
      grain, kt.gemm_row_align);
}

void BatchDecoder::rope_row(float* row, int pos) const {
  const auto& cfg = model_.config();
  const int64_t head_dim = cfg.hidden / cfg.n_heads;
  const int64_t half = head_dim / 2;
  const float* cs = rope_cos_.data() + static_cast<int64_t>(pos) * half;
  const float* sn = rope_sin_.data() + static_cast<int64_t>(pos) * half;
  for (int hd = 0; hd < cfg.n_heads; ++hd) {
    float* hp = row + static_cast<int64_t>(hd) * head_dim;
    for (int64_t i = 0; i < half; ++i) {
      const float x0 = hp[2 * i], x1 = hp[2 * i + 1];
      hp[2 * i] = x0 * cs[i] - x1 * sn[i];
      hp[2 * i + 1] = x0 * sn[i] + x1 * cs[i];
    }
  }
}

const float* BatchDecoder::last_logits(int lane) const {
  for (int64_t r = 0; r < step_rows_; ++r)
    if (rows_[static_cast<size_t>(r)] == lane)
      return logits_.data() + r * model_.config().vocab;
  return nullptr;
}

int32_t BatchDecoder::sample_row(int r, Lane& lane) {
  const int64_t v = model_.config().vocab;
  const float* logits =
      logits_.data() + static_cast<int64_t>(r) * v;
  const GenParams& p = lane.params;
  if (p.temperature <= 0.f) {
    // Greedy argmax; ties go to the lowest token id.
    int64_t best = 0;
    for (int64_t i = 1; i < v; ++i)
      if (logits[i] > logits[best]) best = i;
    return static_cast<int32_t>(best);
  }
  const auto hotter = [&](int32_t a, int32_t b) {
    return logits[a] > logits[b];
  };
  int64_t n_cand = v;
  for (int64_t i = 0; i < v; ++i)
    cand_[static_cast<size_t>(i)] = static_cast<int32_t>(i);
  if (p.top_k > 0 && p.top_k < v) {
    std::partial_sort(cand_.begin(), cand_.begin() + p.top_k,
                      cand_.begin() + v, hotter);
    n_cand = p.top_k;
  }
  if (p.top_p < 1.f && n_cand > 1) {
    std::sort(cand_.begin(), cand_.begin() + n_cand, hotter);
    const float mx2 = logits[cand_[0]];
    double total = 0;
    for (int64_t i = 0; i < n_cand; ++i) {
      mass_[static_cast<size_t>(i)] = std::exp(
          (logits[cand_[static_cast<size_t>(i)]] - mx2) / p.temperature);
      total += mass_[static_cast<size_t>(i)];
    }
    double acc = 0;
    int64_t keep = n_cand;
    for (int64_t i = 0; i < n_cand; ++i) {
      acc += mass_[static_cast<size_t>(i)] / total;
      if (acc >= p.top_p) {
        keep = i + 1;
        break;
      }
    }
    n_cand = keep;
  }
  float mx = -1e30f;
  for (int64_t i = 0; i < n_cand; ++i)
    mx = std::max(mx, logits[cand_[static_cast<size_t>(i)]]);
  double denom = 0;
  for (int64_t i = 0; i < n_cand; ++i) {
    probs_[static_cast<size_t>(i)] = std::exp(
        (logits[cand_[static_cast<size_t>(i)]] - mx) / p.temperature);
    denom += probs_[static_cast<size_t>(i)];
  }
  double u = lane.rng.next_double() * denom;
  for (int64_t i = 0; i < n_cand; ++i) {
    u -= probs_[static_cast<size_t>(i)];
    if (u <= 0) return cand_[static_cast<size_t>(i)];
  }
  return cand_[static_cast<size_t>(n_cand - 1)];
}

void BatchDecoder::decode_step() {
  if (active_ == 0) return;
  APOLLO_TRACE_SCOPE("serve.decode_step", "serve");
  const auto& cfg = model_.config();
  const int64_t hidden = cfg.hidden;
  const int64_t inter = cfg.intermediate;
  const int64_t head_dim = hidden / cfg.n_heads;
  const int window = cfg.seq_len;
  const float scale = 1.f / std::sqrt(static_cast<float>(head_dim));
  const simd::KernelTable& kt = simd::table();

  // Dense gather of occupied lanes: row r of every activation belongs to
  // lane rows_[r] for the rest of the step.
  int64_t b = 0;
  for (int i = 0; i < max_batch_; ++i)
    if (lanes_[static_cast<size_t>(i)].occupied)
      rows_[static_cast<size_t>(b++)] = i;
  step_rows_ = b;

  // Embed this step's token per lane: the next prompt token while
  // prefilling, else the token sampled last step.
  for (int64_t r = 0; r < b; ++r) {
    const Lane& lane = lanes_[static_cast<size_t>(rows_[static_cast<size_t>(r)])];
    const int32_t tok = lane.prompt_pos < lane.prompt.size()
                            ? lane.prompt[lane.prompt_pos]
                            : lane.last_token;
    const float* emb = model_.tok_embed().value.row(tok);
    std::copy(emb, emb + hidden, x_.data() + r * hidden);
  }

  for (size_t l = 0; l < model_.layers().size(); ++l) {
    const auto& lay = model_.layers()[l];

    // Attention block.
    for (int64_t r = 0; r < b; ++r)
      kt.rmsnorm_row(xn_.data() + r * hidden, x_.data() + r * hidden,
                     lay.attn_norm->value.row(0), hidden, 1e-6f);
    gemm_rows(q_.data(), xn_.data(), lay.wq->value, b);
    gemm_rows(k_.data(), xn_.data(), lay.wk->value, b);
    gemm_rows(v_.data(), xn_.data(), lay.wv->value, b);
    for (int64_t r = 0; r < b; ++r) {
      const int lane_idx = rows_[static_cast<size_t>(r)];
      const Lane& lane = lanes_[static_cast<size_t>(lane_idx)];
      const int pos = static_cast<int>(lane.position % window);
      rope_row(q_.data() + r * hidden, pos);
      rope_row(k_.data() + r * hidden, pos);
      std::copy(k_.data() + r * hidden, k_.data() + (r + 1) * hidden,
                arena_.k_row(lane_idx, static_cast<int>(l), pos));
      std::copy(v_.data() + r * hidden, v_.data() + (r + 1) * hidden,
                arena_.v_row(lane_idx, static_cast<int>(l), pos));
    }

    // Per-lane causal attention over the cached window, chronological
    // order (oldest → newest). Lanes are independent: band-parallel, no
    // shared writes.
    core::parallel_for(
        b,
        [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            const int lane_idx = rows_[static_cast<size_t>(r)];
            const Lane& lane = lanes_[static_cast<size_t>(lane_idx)];
            const int64_t ctx =
                std::min<int64_t>(lane.position + 1, window);
            const int64_t start = lane.position + 1 - ctx;
            float* att = att_.data() + r * hidden;
            std::fill(att, att + hidden, 0.f);
            float* sc = scores_.data() + r * window;
            for (int hd = 0; hd < cfg.n_heads; ++hd) {
              const int64_t c0 = static_cast<int64_t>(hd) * head_dim;
              for (int64_t t = 0; t < ctx; ++t) {
                const int ring = static_cast<int>((start + t) % window);
                sc[t] = kt.dot(q_.data() + r * hidden + c0,
                               arena_.k_row(lane_idx, static_cast<int>(l),
                                            ring) +
                                   c0,
                               head_dim) *
                        scale;
              }
              kt.softmax(sc, sc, ctx);
              for (int64_t t = 0; t < ctx; ++t) {
                const int ring = static_cast<int>((start + t) % window);
                kt.axpy(att + c0,
                        arena_.v_row(lane_idx, static_cast<int>(l), ring) +
                            c0,
                        sc[t], head_dim);
              }
            }
          }
        },
        1, 1);

    gemm_rows(proj_.data(), att_.data(), lay.wo->value, b);
    for (int64_t i = 0; i < b * hidden; ++i)
      x_[static_cast<size_t>(i)] += proj_[static_cast<size_t>(i)];

    // SwiGLU MLP block.
    for (int64_t r = 0; r < b; ++r)
      kt.rmsnorm_row(xn_.data() + r * hidden, x_.data() + r * hidden,
                     lay.mlp_norm->value.row(0), hidden, 1e-6f);
    gemm_rows(gate_.data(), xn_.data(), lay.w_gate->value, b);
    gemm_rows(up_.data(), xn_.data(), lay.w_up->value, b);
    kt.silu(gate_.data(), sig_.data(), gate_.data(), b * inter);
    kt.hadamard(gate_.data(), up_.data(), b * inter);
    gemm_rows(proj_.data(), gate_.data(), lay.w_down->value, b);
    for (int64_t i = 0; i < b * hidden; ++i)
      x_[static_cast<size_t>(i)] += proj_[static_cast<size_t>(i)];
  }

  for (int64_t r = 0; r < b; ++r)
    kt.rmsnorm_row(xn_.data() + r * hidden, x_.data() + r * hidden,
                   model_.final_norm().value.row(0), hidden, 1e-6f);
  gemm_rows(logits_.data(), xn_.data(), model_.lm_head().value, b);

  // Advance lanes: sample where a full prefix is in cache, mark finishes.
  for (int64_t r = 0; r < b; ++r) {
    const int lane_idx = rows_[static_cast<size_t>(r)];
    Lane& lane = lanes_[static_cast<size_t>(lane_idx)];
    DecodeOut& out = outputs_[static_cast<size_t>(lane_idx)];
    out.emitted = false;
    out.done = false;
    ++lane.position;
    if (lane.prompt_pos < lane.prompt.size()) ++lane.prompt_pos;
    if (lane.prompt_pos < lane.prompt.size()) continue;  // still prefilling
    const int32_t tok = sample_row(static_cast<int>(r), lane);
    lane.last_token = tok;
    ++lane.generated;
    out.token = tok;
    out.emitted = true;
    if (lane.params.stop_token >= 0 && tok == lane.params.stop_token) {
      out.done = true;
      out.finish = FinishReason::kStop;
    } else if (lane.generated >= lane.params.max_tokens) {
      out.done = true;
      out.finish = FinishReason::kLength;
    }
  }
}

std::vector<int32_t> generate(nn::LlamaModel& model,
                              const std::vector<int32_t>& prompt,
                              const GenParams& params) {
  std::vector<int32_t> out;
  if (params.max_tokens <= 0) return out;
  BatchDecoder dec(model, 1);
  const int lane = dec.admit(prompt, params);
  // Every step either feeds a prompt token or emits one, and the lane
  // finishes by max_tokens at the latest, so this loop terminates.
  for (;;) {
    dec.decode_step();
    const DecodeOut& o = dec.output(lane);
    if (o.emitted) out.push_back(o.token);
    if (o.done) return out;
  }
}

}  // namespace apollo::serve
