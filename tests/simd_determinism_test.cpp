// Determinism contract of the SIMD dispatch layer (tensor/simd/simd.h):
// for a FIXED dispatch level, every kernel — and every training trajectory
// built on them — is bit-identical across thread counts and across repeated
// runs. The thread sweep uses core::set_thread_count, the programmatic
// equivalent of APOLLO_THREADS=1/2/4.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.h"
#include "core/threadpool.h"
#include "data/corpus.h"
#include "fault/crc32.h"
#include "nn/llama.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/simd/simd.h"
#include "train/checkpoint.h"
#include "train/trainer.h"

namespace apollo {
namespace {

namespace simd = apollo::simd;

struct LevelGuard {
  explicit LevelGuard(simd::Level lv) { EXPECT_TRUE(simd::set_level(lv)); }
  ~LevelGuard() { simd::clear_level_override(); }
};

struct ThreadCountGuard {
  explicit ThreadCountGuard(int n) { core::set_thread_count(n); }
  ~ThreadCountGuard() { core::set_thread_count(0); }
};

Matrix random_matrix(int64_t r, int64_t c, uint64_t seed) {
  Matrix m(r, c);
  Rng rng(seed);
  m.fill_gaussian(rng, 0.f, 1.f);
  return m;
}

// Fingerprint of one pass over the kernel-facing ops: matmuls in all three
// transpose modes, elementwise updates, and reductions. Bit-for-bit
// comparable via Matrix::operator== and exact double equality.
struct OpsFingerprint {
  Matrix mm, mat, mbt;
  Matrix elem;
  double fro = 0, total = 0;
  std::vector<float> rnorms;

  bool operator==(const OpsFingerprint& o) const {
    return mm == o.mm && mat == o.mat && mbt == o.mbt && elem == o.elem &&
           fro == o.fro && total == o.total && rnorms == o.rnorms;
  }
};

OpsFingerprint run_ops() {
  // Odd sizes: force tail lanes and partial register tiles.
  const Matrix a = random_matrix(37, 29, 1);
  const Matrix b = random_matrix(29, 53, 2);
  const Matrix at = random_matrix(29, 37, 3);  // for Aᵀ·B
  const Matrix bt = random_matrix(53, 29, 4);  // for A·Bᵀ
  OpsFingerprint fp;
  fp.mm = matmul(a, b);
  fp.mat = matmul_at(at, b);
  fp.mbt = matmul_bt(a, bt);
  fp.elem = random_matrix(41, 17, 5);
  const Matrix x = random_matrix(41, 17, 6);
  axpy(fp.elem, 0.37f, x);
  hadamard_inplace(fp.elem, x);
  scale_inplace(fp.elem, 1.01f);
  fp.fro = frobenius_norm(fp.mm);
  fp.total = sum(fp.mat);
  fp.rnorms = row_norms(fp.mbt);
  return fp;
}

// Appends the bytes of n values to a running CRC-32.
template <class T>
uint32_t crc_add(uint32_t crc, const T* p, int64_t n) {
  return fault::crc32_update(crc, p, static_cast<size_t>(n) * sizeof(T));
}

// Calls every KernelTable entry once on fixed odd-sized inputs and returns
// one CRC-32 over all of their outputs. The inputs take partial register
// tiles, partial column panels, a second k-block and masked lane tails.
uint32_t kernel_table_crc(const simd::KernelTable& kt) {
  constexpr int64_t m = 13, n = 37, k = 263, len = 301;
  const Matrix a = random_matrix(m, k, 31);
  const Matrix at = random_matrix(k, m, 32);
  const Matrix b = random_matrix(k, n, 33);
  const Matrix bt = random_matrix(n, k, 34);
  const Matrix x = random_matrix(1, len, 35);
  const Matrix w = random_matrix(1, len, 36);
  uint32_t crc = fault::kCrc32Init;

  Matrix c(m, n);
  kt.gemm(c.data(), n, a.data(), k, /*a_trans=*/false, b.data(), n, 0, m, n,
          k);
  kt.gemm(c.data(), n, at.data(), m, /*a_trans=*/true, b.data(), n, 0, m, n,
          k);
  kt.gemm_bt(c.data(), n, a.data(), k, bt.data(), k, 0, m, n, k);
  crc = crc_add(crc, c.data(), c.size());

  Matrix y = random_matrix(1, len, 37);
  kt.axpy(y.data(), x.data(), 0.37f, len);
  kt.scale(y.data(), 1.01f, len);
  kt.hadamard(y.data(), x.data(), len);
  crc = crc_add(crc, y.data(), len);

  const double sums[] = {kt.sum(x.data(), len), kt.sumsq(x.data(), len)};
  const float reds[] = {kt.dot(x.data(), w.data(), len),
                        kt.abs_max(x.data(), len)};
  crc = crc_add(crc, sums, 2);
  crc = crc_add(crc, reds, 2);

  // A wide spread of exp inputs, two of them past the vector clamps.
  Matrix big(1, len);
  for (int64_t i = 0; i < len; ++i) big[i] = 9.f * x[i];
  big[0] = 100.f;
  big[1] = -100.f;
  Matrix e(1, len), sm(1, len), rn(1, len), sl(1, len), sig(1, len);
  kt.exp(e.data(), big.data(), len);
  kt.softmax(sm.data(), big.data(), len);
  const float ir = kt.rmsnorm_row(rn.data(), x.data(), w.data(), len, 1e-6f);
  kt.silu(sl.data(), sig.data(), big.data(), len);
  for (const Matrix* out : {&e, &sm, &rn, &sl, &sig})
    crc = crc_add(crc, out->data(), len);
  crc = crc_add(crc, &ir, 1);

  Matrix q = x, err(1, len), u(1, len);
  Rng rng(38);
  rng.fill_floats(u.data(), len);
  int8_t codes[len];
  const float qscale =
      kt.requantize_group(q.data(), codes, err.data(), u.data(), 0.05f, len);
  crc = crc_add(crc, q.data(), len);
  crc = crc_add(crc, err.data(), len);
  crc = crc_add(crc, codes, len);
  crc = crc_add(crc, &qscale, 1);
  return fault::crc32_final(crc);
}

// Pins every vector level's kernel bits across commits; the other tests
// here compare runs inside one process. The values were recorded before the
// per-level tables became constants, and read the same in the native and
// the portable (APOLLO_NATIVE=OFF) build. The scalar level is left out: its
// plain C++ loops contract into fma only where the build targets a CPU
// with fma, so its bits follow the build.
TEST(SimdDeterminism, KernelTableGoldenFingerprints) {
  const std::pair<simd::Level, uint32_t> golden[] = {
      {simd::Level::kAvx2, 0x3045631au},
      {simd::Level::kAvx512, 0xa0e16191u},
  };
  for (const auto& [lv, want] : golden) {
    if (lv > simd::max_supported_level()) continue;
    EXPECT_EQ(kernel_table_crc(simd::table(lv)), want)
        << "kernel bits moved at level " << simd::level_name(lv);
  }
}

// One CRC-32 over gemm_bt on the 7b proxy's weights (out × in, as the
// decoder reads them) and gemm on their materialized transposes, at every
// row count of one register tile: the decode shapes.
uint32_t decode_shape_crc(const simd::KernelTable& kt) {
  // q/k/v/o, gate/up, down and lm_head.
  const int64_t weights[][2] = {{128, 128}, {344, 128}, {128, 344}, {256, 128}};
  uint32_t crc = fault::kCrc32Init;
  uint64_t seed = 41;
  for (const auto& [n, k] : weights) {
    const Matrix w = random_matrix(n, k, seed++);
    const Matrix wt = w.transposed();
    for (int64_t m = 1; m <= kt.gemm_row_align; ++m) {
      const Matrix a = random_matrix(m, k, seed++);
      Matrix c(m, n), ct(m, n);
      kt.gemm_bt(c.data(), n, a.data(), k, w.data(), k, 0, m, n, k);
      kt.gemm(ct.data(), n, a.data(), k, /*a_trans=*/false, wt.data(), n, 0,
              m, n, k);
      crc = crc_add(crc, c.data(), c.size());
      crc = crc_add(crc, ct.data(), ct.size());
    }
  }
  return fault::crc32_final(crc);
}

// Pins the decode-shape GEMM bits across commits, recorded when every band
// still packed B: a band of one register tile must keep them however it
// reads B.
TEST(SimdDeterminism, DecodeShapeGemmGoldenFingerprints) {
  const std::pair<simd::Level, uint32_t> golden[] = {
      {simd::Level::kAvx2, 0x890520e7u},
      {simd::Level::kAvx512, 0xb284e6e3u},
  };
  for (const auto& [lv, want] : golden) {
    if (lv > simd::max_supported_level()) continue;
    EXPECT_EQ(decode_shape_crc(simd::table(lv)), want)
        << "decode-shape gemm bits moved at level " << simd::level_name(lv);
  }
}

TEST(SimdDeterminism, KernelsBitIdenticalAcrossThreadsAndRuns) {
  for (simd::Level lv : simd::available_levels()) {
    LevelGuard level(lv);
    OpsFingerprint base;
    {
      ThreadCountGuard threads(1);
      base = run_ops();
      // Repeated run, same thread count: identical.
      EXPECT_TRUE(base == run_ops())
          << "rerun mismatch at level " << simd::level_name(lv);
    }
    for (int t : {2, 4}) {
      ThreadCountGuard threads(t);
      EXPECT_TRUE(base == run_ops())
          << "thread mismatch at level " << simd::level_name(lv)
          << " threads=" << t;
    }
  }
}

nn::LlamaConfig tiny_config() {
  nn::LlamaConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.intermediate = 40;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.seq_len = 8;
  return cfg;
}

// Manual short training loop that records the loss AND grad-norm streams
// (the Trainer only exposes losses); grad norm uses the same
// slot-ordered fma reduction as the fused path.
std::pair<std::vector<float>, std::vector<double>> short_run(int steps) {
  nn::LlamaModel model(tiny_config(), 11);
  data::CorpusConfig ccfg;
  ccfg.vocab = 64;
  data::SyntheticCorpus corpus(ccfg);
  data::BatchLoader loader(corpus, 2, 8, 99);
  core::FactoryOptions fo;
  fo.rank = 4;
  fo.seed = 77;
  auto opt = core::make_optimizer("apollo", fo);
  opt->set_lr(0.01f);

  std::vector<float> losses;
  std::vector<double> gnorms;
  std::vector<int32_t> ids, targets;
  for (int s = 0; s < steps; ++s) {
    loader.next(ids, targets);
    model.zero_grads();
    ag::Tape tape;
    ag::Var loss = model.loss(tape, ids, targets);
    tape.backward(loss);
    losses.push_back(tape.value(loss)[0]);
    double acc = 0;
    for (nn::Parameter* p : model.parameters()) {
      const double n = frobenius_norm(p->grad);
      acc = std::fma(n, n, acc);
    }
    gnorms.push_back(std::sqrt(acc));
    nn::ParamList params = model.parameters();
    opt->begin_step(params);
    for (size_t i = 0; i < params.size(); ++i)
      opt->step_param(*params[i], static_cast<int>(i));
    opt->end_step(params);
  }
  return {losses, gnorms};
}

TEST(SimdDeterminism, LossAndGradNormStreamsBitIdenticalPerLevel) {
  for (simd::Level lv : simd::available_levels()) {
    LevelGuard level(lv);
    const auto run1 = short_run(30);
    const auto run2 = short_run(30);
    EXPECT_EQ(run1.first, run2.first)
        << "loss stream diverged at level " << simd::level_name(lv);
    EXPECT_EQ(run1.second, run2.second)
        << "grad-norm stream diverged at level " << simd::level_name(lv);
    for (float l : run1.first) ASSERT_TRUE(std::isfinite(l));
  }
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// The ISSUE-6 contract test: a 150-step trajectory at a fixed dispatch
// level reproduces bit-for-bit — per-step losses, final weights, and the
// exact checkpoint bytes (weights + optimizer state).
TEST(SimdDeterminism, TrainingTrajectory150StepsBitIdentical) {
  const std::string dir = ::testing::TempDir();
  auto run = [&](const std::string& tag) {
    nn::LlamaModel model(tiny_config(), 11);
    data::CorpusConfig ccfg;
    ccfg.vocab = 64;
    data::SyntheticCorpus corpus(ccfg);
    core::FactoryOptions fo;
    fo.rank = 4;
    fo.update_freq = 10;
    fo.seed = 77;
    auto opt = core::make_optimizer("apollo", fo);
    train::TrainConfig tc;
    tc.steps = 150;
    tc.batch = 2;
    tc.lr = core::default_lr("apollo");
    tc.record_step_losses = true;
    train::Trainer t(model, *opt, corpus, tc);
    auto result = t.run();
    const std::string ckpt = dir + "/simd_det_" + tag + ".ckpt";
    EXPECT_TRUE(train::save_checkpoint(ckpt, model, tc.steps, opt.get()).ok);
    return std::tuple(result.step_losses, result.final_perplexity,
                      model.parameters()[1]->value, file_bytes(ckpt));
  };
  const auto r1 = run("a");
  const auto r2 = run("b");
  EXPECT_EQ(std::get<0>(r1), std::get<0>(r2)) << "step-loss stream diverged";
  EXPECT_EQ(std::get<1>(r1), std::get<1>(r2));
  EXPECT_TRUE(std::get<2>(r1) == std::get<2>(r2)) << "final weights diverged";
  ASSERT_FALSE(std::get<3>(r1).empty());
  EXPECT_EQ(std::get<3>(r1), std::get<3>(r2)) << "checkpoint bytes diverged";
}

}  // namespace
}  // namespace apollo
