#include "core/quantized_weights.h"

#include <algorithm>
#include <cstring>

#include "tensor/check.h"

namespace apollo::core {
namespace {

constexpr uint32_t kMagic = 0x41515753u;  // "AQWS"
constexpr uint32_t kVersion = 1;

bool write_raw(std::FILE* f, const void* p, size_t n) {
  return std::fwrite(p, 1, n, f) == n;
}

bool read_raw(std::FILE* f, void* p, size_t n) {
  return std::fread(p, 1, n, f) == n;
}

}  // namespace

QuantizedWeightStore::QuantizedWeightStore(const nn::ParamList& params,
                                           uint64_t seed, int64_t group)
    : group_(group) {
  // Split one independent RNG stream per quantized slot, in slot order, so
  // per-slot requantization consumes randomness independently of the order
  // in which slots are stepped (fused completion order vs. classic order).
  Rng seeder(seed);
  slot_index_.assign(params.size(), -1);
  for (size_t i = 0; i < params.size(); ++i) {
    nn::Parameter* p = params[i];
    if (p->matrix_shaped) {
      slot_index_[i] = static_cast<int>(slots_.size());
      Slot s;
      s.param = p;
      s.store = GroupQuantized::quantize(p->value, group_);
      s.residuals.assign(static_cast<size_t>(s.store.num_groups()), 0.f);
      s.rng = Rng(seeder.split());
      slots_.push_back(std::move(s));
    } else {
      fp32_params_.push_back(p);
    }
  }
  dequantize_into_params();
}

void QuantizedWeightStore::dequantize_into_params() {
  for (Slot& s : slots_) {
    s.param->value = s.store.dequantize();
    std::fill(s.residuals.begin(), s.residuals.end(), 0.f);
  }
}

void QuantizedWeightStore::requantize_param(int slot) {
  APOLLO_CHECK(slot >= 0 && slot < static_cast<int>(slot_index_.size()));
  const int idx = slot_index_[static_cast<size_t>(slot)];
  if (idx < 0) return;  // 1-D gain: stays fp32
  Slot& s = slots_[static_cast<size_t>(idx)];
  s.store.requantize_stochastic(s.param->value, s.residuals.data(), s.rng);
}

void QuantizedWeightStore::requantize_from_params() {
  for (Slot& s : slots_)
    std::fill(s.residuals.begin(), s.residuals.end(), 0.f);
  for (int i = 0; i < static_cast<int>(slot_index_.size()); ++i)
    requantize_param(i);
}

void QuantizedWeightStore::save_state(std::FILE* f) const {
  APOLLO_CHECK(write_raw(f, &kMagic, sizeof(kMagic)));
  APOLLO_CHECK(write_raw(f, &kVersion, sizeof(kVersion)));
  APOLLO_CHECK(write_raw(f, &group_, sizeof(group_)));
  const uint32_t nslots = static_cast<uint32_t>(slots_.size());
  APOLLO_CHECK(write_raw(f, &nslots, sizeof(nslots)));
  for (const Slot& s : slots_) {
    const int64_t rows = s.store.rows(), cols = s.store.cols();
    APOLLO_CHECK(write_raw(f, &rows, sizeof(rows)));
    APOLLO_CHECK(write_raw(f, &cols, sizeof(cols)));
    APOLLO_CHECK(
        write_raw(f, s.store.codes().data(), s.store.codes().size()));
    APOLLO_CHECK(write_raw(f, s.store.scales().data(),
                           s.store.scales().size() * sizeof(float)));
    APOLLO_CHECK(
        write_raw(f, s.residuals.data(), s.residuals.size() * sizeof(float)));
    const Rng::State st = s.rng.state();
    APOLLO_CHECK(write_raw(f, st.s, sizeof(st.s)));
    const uint8_t has_cached = st.has_cached ? 1 : 0;
    APOLLO_CHECK(write_raw(f, &has_cached, sizeof(has_cached)));
    APOLLO_CHECK(write_raw(f, &st.cached, sizeof(st.cached)));
  }
}

bool QuantizedWeightStore::load_state(std::FILE* f) {
  uint32_t magic = 0, version = 0, nslots = 0;
  int64_t group = 0;
  if (!read_raw(f, &magic, sizeof(magic)) || magic != kMagic) return false;
  if (!read_raw(f, &version, sizeof(version)) || version != kVersion)
    return false;
  if (!read_raw(f, &group, sizeof(group)) || group != group_) return false;
  if (!read_raw(f, &nslots, sizeof(nslots)) ||
      nslots != static_cast<uint32_t>(slots_.size()))
    return false;

  // Stage into temporaries first so a truncated payload leaves the live
  // store untouched.
  struct Staged {
    std::vector<int8_t> codes;
    std::vector<float> scales;
    std::vector<float> residuals;
    Rng::State rng_state;
  };
  std::vector<Staged> staged(slots_.size());
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    int64_t rows = 0, cols = 0;
    if (!read_raw(f, &rows, sizeof(rows)) ||
        !read_raw(f, &cols, sizeof(cols)) || rows != s.store.rows() ||
        cols != s.store.cols())
      return false;
    Staged& st = staged[i];
    st.codes.resize(s.store.codes().size());
    st.scales.resize(s.store.scales().size());
    st.residuals.resize(s.residuals.size());
    if (!read_raw(f, st.codes.data(), st.codes.size())) return false;
    if (!read_raw(f, st.scales.data(), st.scales.size() * sizeof(float)))
      return false;
    if (!read_raw(f, st.residuals.data(),
                  st.residuals.size() * sizeof(float)))
      return false;
    if (!read_raw(f, st.rng_state.s, sizeof(st.rng_state.s))) return false;
    uint8_t has_cached = 0;
    if (!read_raw(f, &has_cached, sizeof(has_cached))) return false;
    st.rng_state.has_cached = has_cached != 0;
    if (!read_raw(f, &st.rng_state.cached, sizeof(st.rng_state.cached)))
      return false;
  }

  for (size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    s.store = GroupQuantized::from_payload(
        s.store.rows(), s.store.cols(), group_, std::move(staged[i].codes),
        std::move(staged[i].scales));
    s.residuals = std::move(staged[i].residuals);
    s.rng.set_state(staged[i].rng_state);
    s.param->value = s.store.dequantize();
  }
  return true;
}

int64_t QuantizedWeightStore::weight_bytes() const {
  int64_t b = 0;
  for (const Slot& s : slots_) {
    b += s.store.bytes();
    b += static_cast<int64_t>(s.residuals.size() * sizeof(float));
  }
  for (const nn::Parameter* p : fp32_params_)
    b += p->value.size() * static_cast<int64_t>(sizeof(float));
  return b;
}

}  // namespace apollo::core
