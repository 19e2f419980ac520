// Supporting microbenchmarks (google-benchmark): the kernels whose cost
// asymmetry drives the paper's system story — SVD vs. seeded random
// projection, per-step cost of each optimizer, quantization round-trips,
// and the training-stack primitives.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "core/apollo.h"
#include "data/corpus.h"
#include "linalg/projection.h"
#include "linalg/svd.h"
#include "nn/llama.h"
#include "obs/bench_report.h"
#include "optim/adamw.h"
#include "optim/galore.h"
#include "quant/quant.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"

#include "exp_common.h"

namespace apollo {
namespace {

Matrix random_matrix(int64_t r, int64_t c, uint64_t seed) {
  Matrix m(r, c);
  Rng rng(seed);
  m.fill_gaussian(rng, 0.f, 0.1f);
  return m;
}

void BM_Matmul(benchmark::State& state) {
  const int64_t n = state.range(0);
  Matrix a = random_matrix(n, n, 1), b = random_matrix(n, n, 2), c(n, n);
  for (auto _ : state) {
    matmul(c, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

// The paper's core cost asymmetry: SVD projector vs. seeded RP generation.
void BM_SvdProjector(benchmark::State& state) {
  const int64_t n = state.range(0);
  Matrix g = random_matrix(n, 4 * n, 3);
  for (auto _ : state) {
    Matrix p = svd_left_projector(g, n / 4);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_SvdProjector)->Arg(32)->Arg(64)->Arg(128);

void BM_RandomProjector(benchmark::State& state) {
  const int64_t n = state.range(0);
  uint64_t seed = 1;
  for (auto _ : state) {
    Matrix p = gaussian_projection(n / 4, n, seed++);
    benchmark::DoNotOptimize(p.data());
  }
}
BENCHMARK(BM_RandomProjector)->Arg(32)->Arg(64)->Arg(128);

// Per-step optimizer cost on one 128×512 weight. The gradient is drawn once,
// before the timed loop (no optimizer writes it), so the loop times the step
// and not the Gaussian draws.
template <typename MakeOpt>
void optimizer_step_bench(benchmark::State& state, MakeOpt make) {
  nn::Parameter p("w", 128, 512);
  Rng rng(4);
  p.value.fill_gaussian(rng, 0.f, 0.1f);
  p.grad.fill_gaussian(rng, 0.f, 0.1f);
  auto opt = make();
  opt->set_lr(1e-3f);
  for (auto _ : state) {
    opt->step({&p});
    benchmark::DoNotOptimize(p.value.data());
    benchmark::ClobberMemory();
  }
}

void BM_StepAdamW(benchmark::State& state) {
  optimizer_step_bench(state,
                       [] { return std::make_unique<optim::AdamW>(); });
}
BENCHMARK(BM_StepAdamW);

void BM_StepGaLoreSvd(benchmark::State& state) {
  optimizer_step_bench(state, [] {
    optim::GaloreConfig cfg;
    cfg.rank = 32;
    cfg.update_freq = 10;
    return optim::GaLore::galore(cfg);
  });
}
BENCHMARK(BM_StepGaLoreSvd);

void BM_StepApollo(benchmark::State& state) {
  optimizer_step_bench(state, [] {
    core::ApolloConfig cfg;
    cfg.rank = 32;
    cfg.update_freq = 10;
    return core::Apollo::standard(cfg);
  });
}
BENCHMARK(BM_StepApollo);

void BM_StepApolloMini(benchmark::State& state) {
  optimizer_step_bench(state, [] { return core::Apollo::mini(); });
}
BENCHMARK(BM_StepApolloMini);

void BM_QuantizeGroup128(benchmark::State& state) {
  Matrix m = random_matrix(256, 512, 5);
  for (auto _ : state) {
    auto q = GroupQuantized::quantize(m, 128);
    benchmark::DoNotOptimize(q.bytes());
  }
  state.SetBytesProcessed(state.iterations() * m.size() * 4);
}
BENCHMARK(BM_QuantizeGroup128);

// Q-APOLLO's per-step requantization of one 7b-proxy MLP weight (344×128,
// group 128): bulk uniforms, the SIMD group kernel and the error-feedback
// residuals, as QuantizedWeightStore::requantize_param runs it.
void BM_RequantizeStochastic(benchmark::State& state) {
  Matrix m = random_matrix(344, 128, 6);
  GroupQuantized q = GroupQuantized::quantize(m, 128);
  std::vector<float> residuals(static_cast<size_t>(q.num_groups()), 0.f);
  Rng rng(7);
  for (auto _ : state) {
    q.requantize_stochastic(m, residuals.data(), rng);
    benchmark::DoNotOptimize(m.data());
  }
  state.SetItemsProcessed(state.iterations() * m.size());
}
BENCHMARK(BM_RequantizeStochastic);

void BM_TrainStep350MProxy(benchmark::State& state) {
  nn::LlamaModel model(nn::llama_350m_proxy(), 42);
  data::SyntheticCorpus corpus({});
  data::BatchLoader loader(corpus, 4, model.config().seq_len, 7);
  core::ApolloConfig cfg;
  cfg.rank = 16;
  auto opt = core::Apollo::standard(cfg);
  opt->set_lr(0.01f);
  std::vector<int32_t> ids, targets;
  for (auto _ : state) {
    loader.next(ids, targets);
    model.zero_grads();
    ag::Tape tape;
    tape.backward(model.loss(tape, ids, targets));
    opt->step(model.parameters());
  }
  state.SetItemsProcessed(state.iterations() * 4 * model.config().seq_len);
}
BENCHMARK(BM_TrainStep350MProxy);

// Seconds per call, doubling the batch until the sample is long enough to
// trust (single-threaded direct kernel calls; no pool involvement).
template <typename F>
double secs_per_call(F&& body) {
  using clock = std::chrono::steady_clock;
  body();  // warm up caches and the dispatch table
  for (int64_t iters = 1;; iters *= 2) {
    const auto t0 = clock::now();
    for (int64_t i = 0; i < iters; ++i) body();
    const double s = std::chrono::duration<double>(clock::now() - t0).count();
    if (s > 0.1 || iters > (int64_t{1} << 24)) return s / iters;
  }
}

}  // namespace

// Direct sweep of the dispatched SIMD kernels (tensor/simd/simd.h) at every
// level this CPU supports: one row per (kernel, level) with GFLOP/s and
// nominal GB/s, plus the headline `speedup_vs_scalar` scalar (vector GEMM
// over scalar GEMM at the large shape). Returns false — nonzero bench exit —
// when a vector level exists but fails to beat scalar GEMM.
bool run_simd_kernel_sweep(bool quick) {
  obs::BenchReport* rep = obs::BenchReport::current();
  const int64_t N = quick ? 192 : 512;        // GEMM m = n = k
  const int64_t kVec = quick ? (int64_t{1} << 20) : (int64_t{1} << 22);
  const int64_t kRow = 4096;                  // softmax / rmsnorm row width

  Matrix a = random_matrix(N, N, 11), b = random_matrix(N, N, 12), c(N, N);
  Matrix y = random_matrix(1, kVec, 13), x = random_matrix(1, kVec, 14);
  Matrix src = random_matrix(1, kRow, 15), w = random_matrix(1, kRow, 16);
  Matrix dst(1, kRow), sig(1, kRow);
  // requantize_group runs over y in groups of 128 with uniforms u.
  constexpr int64_t kGroup = 128;
  std::vector<float> u(static_cast<size_t>(kVec)), err(kGroup);
  std::vector<int8_t> codes(static_cast<size_t>(kVec));
  Rng urng(17);
  urng.fill_floats(u.data(), kVec);

  std::printf("\n%-10s %-8s %12s %10s\n", "kernel", "level", "GFLOP/s",
              "GB/s");
  double scalar_gemm = 0., best_vector_gemm = 0.;
  for (simd::Level lv : simd::available_levels()) {
    const simd::KernelTable& kt = simd::table(lv);
    struct Sample {
      const char* kernel;
      double secs, flops, bytes;
    };
    const Sample samples[] = {
        {"gemm", secs_per_call([&] {
           kt.gemm(c.data(), N, a.data(), N, false, b.data(), N, 0, N, N, N);
         }),
         2. * N * N * N, 16. * N * N},
        {"gemm_bt", secs_per_call([&] {
           kt.gemm_bt(c.data(), N, a.data(), N, b.data(), N, 0, N, N, N);
         }),
         2. * N * N * N, 16. * N * N},
        {"axpy",
         secs_per_call([&] { kt.axpy(y.data(), x.data(), 1e-4f, kVec); }),
         2. * kVec, 12. * kVec},
        {"sum", secs_per_call([&] {
           benchmark::DoNotOptimize(kt.sum(x.data(), kVec));
         }),
         1. * kVec, 4. * kVec},
        {"softmax",
         secs_per_call([&] { kt.softmax(dst.data(), src.data(), kRow); }),
         4. * kRow, 8. * kRow},
        {"rmsnorm", secs_per_call([&] {
           benchmark::DoNotOptimize(
               kt.rmsnorm_row(dst.data(), src.data(), w.data(), kRow, 1e-6f));
         }),
         4. * kRow, 12. * kRow},
        {"silu", secs_per_call([&] {
           kt.silu(dst.data(), sig.data(), src.data(), kRow);
         }),
         5. * kRow, 12. * kRow},
        // Nominal 8 flops per weight (add, mul, floor, sub, compare, add,
        // mul, sub); bytes are x in and out, u in and one code out.
        {"requant", secs_per_call([&] {
           for (int64_t g = 0; g < kVec; g += kGroup)
             kt.requantize_group(y.data() + g, codes.data() + g, err.data(),
                                 u.data() + g, 0.f, kGroup);
         }),
         8. * kVec, 13. * kVec},
    };
    for (const Sample& s : samples) {
      const double gflops = s.flops / s.secs * 1e-9;
      const double gbps = s.bytes / s.secs * 1e-9;
      std::printf("%-10s %-8s %12.2f %10.2f\n", s.kernel,
                  simd::level_name(lv), gflops, gbps);
      if (rep != nullptr) {
        rep->add_row()
            .col_str("name", std::string("simd_") + s.kernel)
            .col_str("level", simd::level_name(lv))
            .col("gflops", gflops)
            .col("gbps", gbps);
      }
      if (std::string(s.kernel) == "gemm") {
        if (lv == simd::Level::kScalar)
          scalar_gemm = gflops;
        else if (gflops > best_vector_gemm)
          best_vector_gemm = gflops;
      }
    }
  }

  // Decode shapes: a few rows against the 7b proxy's MLP weights (out × in),
  // read as rows by gemm_bt — what the serving decoder runs — and as their
  // materialized transposes by gemm.
  std::printf("\n%-10s %-8s %-9s %3s %12s\n", "kernel", "level", "weight",
              "m", "GFLOP/s");
  const int64_t decode_weights[][2] = {{344, 128}, {128, 344}};
  for (simd::Level lv : simd::available_levels()) {
    const simd::KernelTable& kt = simd::table(lv);
    for (const auto& [out, in] : decode_weights) {
      const Matrix weight = random_matrix(out, in, 18);
      const Matrix weight_t = weight.transposed();
      for (int64_t m : {1, 4, 8}) {
        const Matrix act = random_matrix(m, in, 19);
        Matrix res(m, out);
        const double flops = 2. * static_cast<double>(m * out * in);
        const std::pair<const char*, double> timed[] = {
            {"gemm_bt", secs_per_call([&] {
               kt.gemm_bt(res.data(), out, act.data(), in, weight.data(), in,
                          0, m, out, in);
             })},
            {"gemm", secs_per_call([&] {
               kt.gemm(res.data(), out, act.data(), in, false,
                       weight_t.data(), out, 0, m, out, in);
             })},
        };
        for (const auto& [kernel, secs] : timed) {
          const double gflops = flops / secs * 1e-9;
          std::printf("%-10s %-8s %4lldx%-4lld %3lld %12.2f\n", kernel,
                      simd::level_name(lv), static_cast<long long>(out),
                      static_cast<long long>(in), static_cast<long long>(m),
                      gflops);
          if (rep != nullptr) {
            rep->add_row()
                .col_str("name", std::string("simd_decode_") + kernel)
                .col_str("level", simd::level_name(lv))
                .col_int("out", out)
                .col_int("in", in)
                .col_int("m", m)
                .col("gflops", gflops);
          }
        }
      }
    }
  }

  const bool has_vector = simd::available_levels().size() > 1;
  const double speedup =
      has_vector && scalar_gemm > 0. ? best_vector_gemm / scalar_gemm : 1.;
  std::printf("simd gemm speedup_vs_scalar: %.2fx (N=%lld)\n\n", speedup,
              static_cast<long long>(N));
  if (rep != nullptr) {
    rep->scalar("speedup_vs_scalar", speedup);
    rep->note("simd_max_level", simd::level_name(simd::max_supported_level()));
  }
  if (has_vector && speedup <= 1.) {
    std::fprintf(stderr,
                 "FAIL: vectorized GEMM (%.2f GFLOP/s) does not beat scalar "
                 "(%.2f GFLOP/s) at N=%lld\n",
                 best_vector_gemm, scalar_gemm, static_cast<long long>(N));
    return false;
  }
  return true;
}

}  // namespace apollo

namespace {

// Mirror every benchmark run into the shared BENCH_ artifact alongside the
// normal console table.
class ReportAdapter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    apollo::obs::BenchReport* rep = apollo::obs::BenchReport::current();
    if (rep == nullptr) return;
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      rep->add_row()
          .col_str("name", run.benchmark_name())
          .col("real_time_ns", run.GetAdjustedRealTime())
          .col("cpu_time_ns", run.GetAdjustedCPUTime())
          .col_int("iterations", run.iterations);
    }
  }
};

}  // namespace

int main(int argc, char** argv) {
  const bool quick = apollo::bench::quick_mode();
  apollo::obs::BenchReport::open("micro_kernels", quick);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ReportAdapter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // Nonzero exit when a vector level fails to beat the scalar GEMM — keeps
  // the dispatch win an enforced property, not just a reported number.
  return apollo::run_simd_kernel_sweep(quick) ? 0 : 1;
}
