// apollo-perfbench: runs one workload of the repository benchmark.
//
//   apollo-perfbench --workload pretrain-apollo --seed 3 --seconds 15
//       --trace 0 --workdir .bench_build/run
//
// Prints a human-readable report (environment stamp, every metric with its
// unit and sample count) and, as the last stdout line, one JSON object with
// the keys correct, attempted, failed and metrics. Exit code 0 when every
// output check passed, 1 when one failed, 2 on bad usage or environment.
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

// Each of these changes the program under test (tracing, telemetry, planted
// faults, a different update driver or weight format), so a measurement
// taken with any of them set would not be of the benchmarked program.
bool environment_is_clean() {
  const char* set = nullptr;
  if (std::getenv("APOLLO_TRACE") != nullptr) set = "APOLLO_TRACE";
  else if (std::getenv("APOLLO_METRICS") != nullptr) set = "APOLLO_METRICS";
  else if (std::getenv("APOLLO_FAULTS") != nullptr) set = "APOLLO_FAULTS";
  else if (std::getenv("APOLLO_FUSED_UPDATE") != nullptr) set = "APOLLO_FUSED_UPDATE";
  else if (std::getenv("APOLLO_QUANT_WEIGHTS") != nullptr) set = "APOLLO_QUANT_WEIGHTS";
  if (set == nullptr) return true;
  std::fprintf(stderr, "apollo-perfbench: refusing to run with %s set\n", set);
  return false;
}

bool parse_int(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno != 0 || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    long long v = 0;
    if (std::strcmp(key, "--workload") == 0) {
      opt.workload = val;
    } else if (std::strcmp(key, "--seed") == 0 &&
               parse_int(val, LLONG_MIN, LLONG_MAX, &v)) {
      opt.seed = static_cast<uint64_t>(v);
    } else if (std::strcmp(key, "--seconds") == 0 && parse_int(val, 1, 600, &v)) {
      opt.seconds = static_cast<int>(v);
    } else if (std::strcmp(key, "--trace") == 0 && parse_int(val, 0, 1, &v)) {
      opt.trace = v == 1;
    } else if (std::strcmp(key, "--workdir") == 0) {
      opt.workdir = val;
    } else {
      std::fprintf(stderr, "apollo-perfbench: bad argument %s %s\n", key, val);
      return 2;
    }
  }
  if (argc % 2 == 0 || opt.workdir.empty() ||
      !(perfbench::is_training_workload(opt.workload) ||
        opt.workload == "serve-open")) {
    std::fprintf(stderr,
                 "usage: apollo-perfbench --workload "
                 "pretrain-apollo|qstream-mini|serve-open|ddp2-apollo "
                 "--seed N --seconds N --trace 0|1 --workdir DIR\n");
    return 2;
  }
  if (!environment_is_clean()) return 2;
  std::error_code ec;
  std::filesystem::create_directories(opt.workdir, ec);

  perfbench::Result r;
  if (opt.workload == "serve-open")
    perfbench::run_serve_workload(opt, r);
  else
    perfbench::run_training_workload(opt, r);
  perfbench::print_result(opt, r, perfbench::kPoolWidth);
  return r.correct ? 0 : 1;
}
