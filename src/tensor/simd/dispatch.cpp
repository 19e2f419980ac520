// Level resolution and kernel-table dispatch. cpuid is probed once; the
// active level is max_supported unless overridden by APOLLO_SIMD or
// set_level(). Tables are immutable per-level constants, so table(level) is
// safe to call concurrently from pool workers.
#include "tensor/simd/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <mutex>

#include "tensor/check.h"
#include "tensor/simd/kernels_decl.h"

namespace apollo::simd {
namespace {

constexpr int kLevelNone = -1;

Level probe_max_level() {
#if defined(__x86_64__) || defined(_M_X64)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    return Level::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Level::kAvx2;
  }
#endif
  return Level::kScalar;
}

Level max_level_cached() {
  static const Level level = probe_max_level();
  return level;
}

bool parse_level(const char* s, Level* out) {
  for (Level lv : {Level::kScalar, Level::kAvx2, Level::kAvx512}) {
    if (std::strcmp(s, level_name(lv)) == 0) {
      *out = lv;
      return true;
    }
  }
  return false;
}

// Resolve APOLLO_SIMD once; unsupported or unknown values warn and fall
// back so a pinned-scalar script still runs on any machine.
Level env_or_cpuid_level() {
  static std::once_flag once;
  static Level resolved = Level::kScalar;
  std::call_once(once, [] {
    resolved = max_level_cached();
    const char* env = std::getenv("APOLLO_SIMD");
    if (env == nullptr || env[0] == '\0') return;
    Level req;
    if (!parse_level(env, &req)) {
      std::fprintf(stderr,
                   "[apollo] APOLLO_SIMD=%s is not scalar|avx2|avx512; "
                   "using %s\n",
                   env, level_name(resolved));
      return;
    }
    if (req > max_level_cached()) {
      std::fprintf(stderr,
                   "[apollo] APOLLO_SIMD=%s unsupported on this CPU; "
                   "using %s\n",
                   env, level_name(resolved));
      return;
    }
    resolved = req;
  });
  return resolved;
}

// set_level() override; kLevelNone means "no override".
std::atomic<int> g_override{kLevelNone};

}  // namespace

const char* level_name(Level level) {
  switch (level) {
    case Level::kAvx512: return "avx512";
    case Level::kAvx2: return "avx2";
    default: return "scalar";
  }
}

Level max_supported_level() { return max_level_cached(); }

// Diagnostic enumeration (lives in the simd/ hot-root directory but is only
// called from tests and startup banners, never per element).
std::vector<Level> available_levels() {
  std::vector<Level> out{Level::kScalar};
  if (max_level_cached() >= Level::kAvx2)
    out.push_back(Level::kAvx2);  // lint:allow(hot-path-alloc)
  if (max_level_cached() >= Level::kAvx512)
    out.push_back(Level::kAvx512);  // lint:allow(hot-path-alloc)
  return out;
}

Level active_level() {
  const int ov = g_override.load(std::memory_order_acquire);
  if (ov != kLevelNone) return static_cast<Level>(ov);
  return env_or_cpuid_level();
}

bool set_level(Level level) {
  if (level > max_level_cached()) return false;
  g_override.store(static_cast<int>(level), std::memory_order_release);
  return true;
}

void clear_level_override() {
  g_override.store(kLevelNone, std::memory_order_release);
}

const KernelTable& table(Level level) {
  APOLLO_CHECK_MSG(level <= max_level_cached(),
                   "requested SIMD level unsupported on this CPU");
#if defined(__x86_64__) || defined(_M_X64)
  if (level == Level::kAvx512) return detail::kAvx512Kernels;
  if (level == Level::kAvx2) return detail::kAvx2Kernels;
#endif
  return detail::kScalarKernels;
}

const KernelTable& table() { return table(active_level()); }

}  // namespace apollo::simd
