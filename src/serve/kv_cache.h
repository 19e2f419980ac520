// Slab KV cache for batched incremental decode (DESIGN.md §14).
//
// One contiguous float allocation holds every cached key/value row for
// every decode slot: slot s, layer l keeps a ring of up to `window` rows of
// rotary-encoded K and raw V, one per fed position. The whole arena is
// sized once at construction — KV memory is a startup-time budget, and
// admission control (serve/scheduler) is what handles demand beyond it.
// Steady-state decode never allocates.
//
// Memory math (docs/SERVING.md):
//   bytes = slots · layers · 2 · window · hidden · 4
//
// Ring semantics: rows are written at position p mod window. Once a
// sequence is longer than the window, attention reads the newest `window`
// rows in chronological order — a sliding-window truncation, with RoPE
// positions wrapping to stay inside the trained range.
#pragma once

#include <cstdint>
#include <vector>

namespace apollo::serve {

class KvArena {
 public:
  // All dimensions must be positive; the slab is zero-initialized.
  KvArena(int slots, int n_layers, int window, int hidden);

  int slots() const { return slots_; }
  int window() const { return window_; }
  int64_t bytes() const {
    return static_cast<int64_t>(slab_.size() * sizeof(float));
  }

  // Bytes one decode slot costs, for budget math before construction.
  static int64_t bytes_per_slot(int n_layers, int window, int hidden);

  // Row `pos % window` of the K (resp. V) ring for (slot, layer). The
  // caller owns chronology: it tracks how many rows are live and reads
  // them oldest-to-newest.
  float* k_row(int slot, int layer, int ring_pos) {
    return slab_.data() + offset_(slot, layer, /*is_v=*/false, ring_pos);
  }
  float* v_row(int slot, int layer, int ring_pos) {
    return slab_.data() + offset_(slot, layer, /*is_v=*/true, ring_pos);
  }
  const float* k_row(int slot, int layer, int ring_pos) const {
    return slab_.data() + offset_(slot, layer, /*is_v=*/false, ring_pos);
  }
  const float* v_row(int slot, int layer, int ring_pos) const {
    return slab_.data() + offset_(slot, layer, /*is_v=*/true, ring_pos);
  }

  // Zero a slot's rings before reuse by a new request. Not required for
  // correctness (a fresh request overwrites rows before reading them) but
  // keeps slot recycling from ever leaking a prior request's activations.
  void clear_slot(int slot);

 private:
  int64_t offset_(int slot, int layer, bool is_v, int ring_pos) const;

  int slots_;
  int n_layers_;
  int window_;
  int hidden_;
  std::vector<float> slab_;
};

}  // namespace apollo::serve
