// Internal: each dispatch level's kernel table, defined and constant-
// initialized in the translation unit that compiles its kernels (the
// AVX2/AVX-512 ones with the matching -m flags). Constant initialization
// runs no code, so no vector instruction executes before dispatch.cpp's
// cpuid check hands a vector table out.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/simd/simd.h"

namespace apollo::simd::detail {

extern const KernelTable kScalarKernels;
#if defined(__x86_64__) || defined(_M_X64)
extern const KernelTable kAvx2Kernels;
extern const KernelTable kAvx512Kernels;
#endif

// One element of requantize_group, given its group's scale and 1/scale:
// the scalar reference, also used for the vector backends' tails. Internal
// linkage, so each backend's translation unit compiles its own copy with
// its own ISA flags.
static inline void requantize_element(float* x, int8_t* q, float* err,
                                      float u, float r, float scale,
                                      float inv) {
  const float v = *x + r;
  const float s = v * inv;
  const float fl = std::floor(s);
  // Round up with probability equal to the fractional part, so E[q] = s.
  const float qf = std::clamp(fl + (u < s - fl ? 1.f : 0.f), -127.f, 127.f);
  *q = std::isnan(qf) ? int8_t{0} : static_cast<int8_t>(qf);
  // d has two uses (the store and the subtraction), so it is never
  // contracted into an fma with the subtraction.
  const float d = qf * scale;
  *x = d;
  *err = v - d;
}

}  // namespace apollo::simd::detail
