// BF16 (bfloat16) storage emulation.
//
// The paper's memory numbers assume BF16 optimizer states and weights; our
// compute stays fp32 (exactly like mixed-precision training frameworks that
// compute in fp32 and *store* in bf16). These two conversions give a
// 2-byte/element persistent code with round-to-nearest-even — the bf16 rung
// of optim::AdamMoments.
#pragma once

#include <cstdint>
#include <cstring>

namespace apollo {

// Round-to-nearest-even fp32 → bf16 code (upper 16 bits of the float).
inline uint16_t float_to_bf16(float x) {
  uint32_t bits;
  std::memcpy(&bits, &x, sizeof bits);
  // NaN-safe RNE: add the rounding bias derived from bit 16.
  const uint32_t rounding = 0x7fffu + ((bits >> 16) & 1u);
  if ((bits & 0x7f800000u) == 0x7f800000u && (bits & 0x007fffffu) != 0)
    return static_cast<uint16_t>((bits >> 16) | 0x0040u);  // quiet NaN
  return static_cast<uint16_t>((bits + rounding) >> 16);
}

inline float bf16_to_float(uint16_t code) {
  const uint32_t bits = static_cast<uint32_t>(code) << 16;
  float x;
  std::memcpy(&x, &bits, sizeof x);
  return x;
}

}  // namespace apollo
