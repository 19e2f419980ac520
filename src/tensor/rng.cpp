#include "tensor/rng.h"

#include <cmath>

namespace apollo {

namespace {
inline uint64_t splitmix64(uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace

void Rng::reseed(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  has_cached_ = false;
}

double Rng::next_double() {
  // 53 random mantissa bits.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

void Rng::fill_floats(float* out, int64_t n) {
  // A block at a time: the generator's serial chain first, then a loop the
  // compiler vectorizes.
  constexpr int64_t kBlock = 64;
  uint64_t bits[kBlock];
  for (int64_t c = 0; c < n; c += kBlock) {
    const int64_t len = n - c < kBlock ? n - c : kBlock;
    for (int64_t i = 0; i < len; ++i) bits[i] = next_u64();
    for (int64_t i = 0; i < len; ++i) out[c + i] = uniform_float(bits[i]);
  }
}

uint64_t Rng::next_below(uint64_t n) {
  // Lemire's nearly-divisionless bounded generation (simple rejection form).
  if (n == 0) return 0;
  uint64_t threshold = (0 - n) % n;
  for (;;) {
    uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

double Rng::next_gaussian() {
  if (has_cached_) {
    has_cached_ = false;
    return cached_;
  }
  // Box–Muller on (0,1] uniforms to avoid log(0).
  double u1 = 1.0 - next_double();
  double u2 = next_double();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_ = r * std::sin(theta);
  has_cached_ = true;
  return r * std::cos(theta);
}

}  // namespace apollo
