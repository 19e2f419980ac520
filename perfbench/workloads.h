// The four workloads of BENCHMARK.json. Each fills `r` with the end-to-end
// metrics (untraced run) or the per-layer metrics of the layers it runs
// (traced run, which also replays the untraced run to check it). run.py
// reports the layers a workload bypasses as 0.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

// core::set_thread_count in every benchmark process, data-parallel ranks
// included. Width 2 is not faster at these shapes, and its per-kernel
// worker wake-up made run-to-run spread unusable on a shared VM
// (METRICS.md, "Bounds").
inline constexpr int kPoolWidth = 1;

bool is_training_workload(const std::string& name);
void run_training_workload(const Options& opt, Result& r);
void run_serve_workload(const Options& opt, Result& r);

// GFLOP/s of a standalone GEMM at one workload's MLP shape (K=128, N=344):
// "train" and "micro" time apollo::matmul_bt at M=256 and M=64, "decode"
// times the dispatched simd gemm the batch decoder calls, at 4 rows. Runs at
// the current pool width.
double gemm_gflops(const std::string& shape);

}  // namespace perfbench
