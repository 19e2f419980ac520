// Little-endian binary stream helpers shared by the checkpoint writer
// (train/checkpoint.cpp) and the optimizer-state serializers. All functions return false on short
// reads/writes so callers can surface errors without exceptions.
#pragma once

#include <cstdint>
#include <cstdio>
#include <type_traits>

#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace apollo {

// n == 0 short-circuits: empty matrices/strings have a null data() pointer,
// and passing null to fwrite/fread is UB even for zero-length transfers.
inline bool write_bytes(std::FILE* f, const void* p, size_t n) {
  return n == 0 || std::fwrite(p, 1, n, f) == n;
}
inline bool read_bytes(std::FILE* f, void* p, size_t n) {
  return n == 0 || std::fread(p, 1, n, f) == n;
}

// Only types whose every byte is value (no padding) may be written whole:
// a padded struct would copy stack garbage into the file and its CRC.
template <typename T>
constexpr bool kPodBytesAreValue =
    std::has_unique_object_representations_v<T> ||
    std::is_floating_point_v<T>;

template <typename T>
bool write_pod(std::FILE* f, const T& v) {
  static_assert(kPodBytesAreValue<T>, "padded type: write its fields");
  return write_bytes(f, &v, sizeof v);
}
template <typename T>
bool read_pod(std::FILE* f, T& v) {
  static_assert(kPodBytesAreValue<T>, "padded type: read its fields");
  return read_bytes(f, &v, sizeof v);
}

// Rng::State in its 48-byte on-disk layout: s[4], a 0/1 flag byte, 7 zero
// pad bytes, then `cached`. Field by field, so the struct's padding never
// reaches the file. The reader ignores the pad bytes (older writers left
// garbage there) and rejects any flag byte other than 0 or 1.
inline bool write_rng_state(std::FILE* f, const Rng::State& st) {
  const uint8_t flag = st.has_cached ? 1 : 0;
  const uint8_t pad[7] = {};
  return write_pod(f, st.s) && write_pod(f, flag) && write_pod(f, pad) &&
         write_pod(f, st.cached);
}
inline bool read_rng_state(std::FILE* f, Rng::State& st) {
  uint8_t flag = 0;
  uint8_t pad[7];
  if (!read_pod(f, st.s) || !read_pod(f, flag) || flag > 1 ||
      !read_pod(f, pad) || !read_pod(f, st.cached))
    return false;
  st.has_cached = flag == 1;
  return true;
}

// Bytes between the read position and the end of `f`, or -1 when the
// stream cannot seek. Readers check length fields against it before the
// length sizes an allocation.
inline int64_t stream_bytes_left(std::FILE* f) {
  const long at = std::ftell(f);
  if (at < 0 || std::fseek(f, 0, SEEK_END) != 0) return -1;
  const long end = std::ftell(f);
  if (std::fseek(f, at, SEEK_SET) != 0 || end < at) return -1;
  return end - at;
}

inline bool write_matrix(std::FILE* f, const Matrix& m) {
  const int64_t r = m.rows(), c = m.cols();
  return write_pod(f, r) && write_pod(f, c) &&
         write_bytes(f, m.data(),
                     static_cast<size_t>(m.size()) * sizeof(float));
}
// A shape that needs more floats than the stream has left is refused
// before `m` is resized, so `m` keeps its old shape on every failure before
// the payload read. (A stream that cannot seek has no known size: only
// empty matrices load from it.)
inline bool read_matrix(std::FILE* f, Matrix& m) {
  int64_t r = 0, c = 0;
  if (!read_pod(f, r) || !read_pod(f, c) || r < 0 || c < 0) return false;
  const int64_t floats_left =
      stream_bytes_left(f) / static_cast<int64_t>(sizeof(float));
  if (c != 0 && r > floats_left / c) return false;
  m.reshape_discard(r, c);
  return read_bytes(f, m.data(),
                    static_cast<size_t>(m.size()) * sizeof(float));
}

}  // namespace apollo
