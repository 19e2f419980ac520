// Deterministic random number generation.
//
// All randomness in the library flows through an explicitly seeded Rng so
// that every experiment is bit-reproducible. APOLLO's random projections
// additionally rely on the ability to *regenerate* a projection matrix from
// a stored 8-byte seed instead of storing the matrix itself — that property
// is what drives the optimizer-state memory accounting in Table 1.
#pragma once

#include <cstdint>

namespace apollo {

// xoshiro256** by Blackman & Vigna, seeded through SplitMix64.
// Small, fast, and high quality; passes BigCrush.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  void reseed(uint64_t seed);

  // Uniform 64-bit integer. Defined here so bulk loops keep the state in
  // registers.
  uint64_t next_u64() {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double next_double();
  float next_float() { return static_cast<float>(next_double()); }
  // The float next_float() makes of one next_u64() draw. Converting the top
  // 53 bits straight to float rounds the same exact value once, as
  // next_float()'s trip through double does, and the power-of-two scale is
  // exact, so the two agree bit for bit; this form vectorizes.
  static float uniform_float(uint64_t bits) {
    return static_cast<float>(static_cast<int64_t>(bits >> 11)) * 0x1.0p-53f;
  }
  // out[0..n) = n successive next_float() draws: same values, same final
  // state, without a call per draw.
  void fill_floats(float* out, int64_t n);

  // Uniform integer in [0, n).
  uint64_t next_below(uint64_t n);

  // Standard normal via Box–Muller (caches the second deviate).
  double next_gaussian();

  // Derive an independent stream seed (for per-parameter projection seeds).
  uint64_t split() { return next_u64() ^ 0xd1b54a32d192ed03ull; }

  // Full generator state, exposed for exact-resume checkpointing.
  struct State {
    uint64_t s[4];
    bool has_cached;
    double cached;
  };
  State state() const { return {{s_[0], s_[1], s_[2], s_[3]}, has_cached_, cached_}; }
  void set_state(const State& st) {
    for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
    has_cached_ = st.has_cached;
    cached_ = st.cached;
  }

 private:
  static uint64_t rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool has_cached_ = false;
  double cached_ = 0.0;
};

}  // namespace apollo
