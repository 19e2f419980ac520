// The one way a checkpoint file reaches disk, shared by the v3 checkpoint
// (train/checkpoint.cpp) and the per-rank optimizer shard files
// (train/resilience.cpp): the atomic commit with its retries and its
// checkpoint faults, the in-memory capture of an optimizer's state, and
// CRC-32-sectioned streams. A "section" is a run of bytes followed by the
// CRC-32 of exactly those bytes; the CRC bytes themselves belong to no
// section. Writers short-circuit after the first failure so call sites can
// batch writes and check `ok()` once; readers report a mismatch (or a
// truncation inside the CRC itself) from check_crc().
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/crc32.h"
#include "nn/parameter.h"
#include "optim/optimizer.h"
#include "tensor/serialize.h"

namespace apollo::train {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

// Optimizer state serialized into memory: the buffer open_memstream grew,
// freed with the blob.
struct OptimizerBlob {
  struct Free {
    void operator()(char* p) const { std::free(p); }
  };
  std::unique_ptr<char, Free> bytes;
  size_t size = 0;
};

// Serializes the optimizer state into memory so a section can
// length-prefix and checksum it. Returns false when the state could not be
// written (save_state failed). First gives the thread's cached Matrix storage
// back to malloc: the blob is the one large allocation of a training step
// that is not a Matrix, and it should reuse those pages rather than grow
// the process.
bool capture_optimizer_blob(const optim::Optimizer& opt,
                            const nn::ParamList& params, OptimizerBlob* out);

// Streams bytes to a FILE* while accumulating a CRC-32 over everything
// written since the last emit_crc().
class CrcWriter {
 public:
  explicit CrcWriter(std::FILE* f) : f_(f) {}

  void write(const void* p, size_t n) {
    if (!ok_ || n == 0) return;
    if (std::fwrite(p, 1, n, f_) != n) {
      ok_ = false;
      return;
    }
    crc_ = fault::crc32_update(crc_, p, n);
    pos_ += static_cast<int64_t>(n);
  }
  template <typename T>
  void write_pod(const T& v) {
    static_assert(kPodBytesAreValue<T>, "padded type: write its fields");
    write(&v, sizeof v);
  }
  // Writes the CRC of the section that just ended (the CRC bytes themselves
  // are not part of any section) and starts a new section.
  void emit_crc() {
    const uint32_t c = fault::crc32_final(crc_);
    if (ok_ && std::fwrite(&c, 1, sizeof c, f_) != sizeof c) ok_ = false;
    crc_ = fault::kCrc32Init;
    last_mid_ = pos_ > begin_ ? (begin_ + pos_) / 2 : -1;
    pos_ += sizeof c;
    begin_ = pos_;
  }
  // A u64 length, then the bytes: the layout CrcReader::read_blob reads.
  void write_blob(const void* p, size_t n) {
    write_pod(static_cast<uint64_t>(n));
    write(p, n);
  }
  // Raw write outside any section (magic bytes): written between sections,
  // it moves the next section's start past it.
  void write_raw(const void* p, size_t n) {
    if (ok_ && std::fwrite(p, 1, n, f_) != n) ok_ = false;
    if (begin_ == pos_) begin_ += static_cast<int64_t>(n);
    pos_ += static_cast<int64_t>(n);
  }
  bool ok() const { return ok_; }
  // Bytes written so far, and the offset of the middle byte of the last
  // section emit_crc() closed (-1 when it was empty).
  int64_t bytes() const { return pos_; }
  int64_t last_section_mid() const { return last_mid_; }

 private:
  std::FILE* f_;
  uint32_t crc_ = fault::kCrc32Init;
  bool ok_ = true;
  int64_t pos_ = 0, begin_ = 0, last_mid_ = -1;
};

// Commits one checkpoint file atomically: `write` fills `path + ".tmp"`,
// which is fsync'd and renamed over `path`, and then the parent directory
// is fsync'd. A crash at any point leaves the old `path` or a stale temp.
// `write` returns "" or what failed; a failed attempt removes its temp and
// runs again after 10 ms, then 40 ms, and the third failure is returned
// with "(after 3 attempts)". The checkpoint faults (fault_injection.h) fire
// here, in the first file a process commits at or after their step:
// crash_save leaves half of the temp and exits 86, trunc_ckpt halves the
// committed file, and bitflip_opt flips a bit mid-way through its last CRC
// section, the optimizer state of a weights file and of a shard alike.
std::string commit_file(const std::string& path, int64_t step,
                        const std::function<std::string(CrcWriter&)>& write);

// Reads bytes while accumulating a CRC-32; check_crc() reads the stored
// section CRC and compares.
class CrcReader {
 public:
  explicit CrcReader(std::FILE* f) : f_(f) {}

  bool read(void* p, size_t n) {
    if (!ok_) return false;
    if (n == 0) return true;
    if (std::fread(p, 1, n, f_) != n) {
      ok_ = false;
      return false;
    }
    crc_ = fault::crc32_update(crc_, p, n);
    return true;
  }
  template <typename T>
  bool read_pod(T& v) {
    static_assert(kPodBytesAreValue<T>, "padded type: read its fields");
    return read(&v, sizeof v);
  }
  // Reads what write_blob wrote. The length field is checked against the
  // bytes left in the file before it sizes *out, so a corrupt length cannot
  // demand a huge allocation: it fails with *bad_length naming it (left
  // empty when the failure is a plain truncation).
  bool read_blob(std::vector<char>* out, std::string* bad_length) {
    uint64_t len = 0;
    if (!read_pod(len)) return false;
    const int64_t left = stream_bytes_left(f_);
    if (left < 0 || len > static_cast<uint64_t>(left)) {
      *bad_length = "length " + std::to_string(len) + " exceeds the " +
                    std::to_string(left) + " bytes left in the file";
      ok_ = false;
      return false;
    }
    out->resize(static_cast<size_t>(len));
    return read(out->data(), out->size());
  }
  // Returns true when the stored section CRC matches the accumulated one;
  // starts a new section either way. Truncation mid-CRC also returns false.
  bool check_crc() {
    const uint32_t computed = fault::crc32_final(crc_);
    crc_ = fault::kCrc32Init;
    uint32_t stored = 0;
    if (!ok_ || std::fread(&stored, 1, sizeof stored, f_) != sizeof stored) {
      ok_ = false;
      return false;
    }
    return stored == computed;
  }
  bool ok() const { return ok_; }

 private:
  std::FILE* f_;
  uint32_t crc_ = fault::kCrc32Init;
  bool ok_ = true;
};

}  // namespace apollo::train
