#include "train/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <unistd.h>
#include <vector>

#include "fault/fault_injection.h"
#include "nn/parameter.h"
#include "obs/trace.h"
#include "train/ckpt_io.h"

namespace apollo::train {

namespace {

constexpr char kMagic[4] = {'A', 'P', 'L', 'O'};
constexpr char kEndMagic[4] = {'O', 'L', 'P', 'A'};
constexpr uint32_t kVersion = 3;
constexpr int kSaveAttempts = 3;

CheckpointResult fail(const std::string& msg) {
  CheckpointResult r;
  r.error = msg;
  return r;
}

// Writes the full v3 payload into an already-open temp file; returns "" or
// what failed. `step` is forwarded to the fault-injection hooks. Sets
// *opt_section_off to the file offset where the optimizer section begins
// (for the bitflip_opt fault) and *saved_state when that section carries
// optimizer state.
std::string write_payload(std::FILE* f, nn::LlamaModel& model, int64_t step,
                          const optim::Optimizer* opt, long* opt_section_off,
                          bool* saved_state) {
  CrcWriter w(f);
  auto params = model.parameters();
  const uint32_t count = static_cast<uint32_t>(params.size());

  w.write_raw(kMagic, 4);
  w.write_pod(kVersion);
  w.write_pod(step);
  w.write_pod(count);
  w.emit_crc();
  if (!w.ok()) return "write failed (header)";

  size_t i = 0;
  for (const nn::Parameter* p : params) {
    // Simulated crash halfway through the parameter sections: the temp
    // file is flushed (so a torn prefix is actually on disk) and the
    // process dies without any cleanup, exactly like a mid-save SIGKILL.
    if (i++ == params.size() / 2 &&
        fault::take_at_or_after(fault::Kind::kCrashInSave, step)) {
      std::fflush(f);
      std::_Exit(fault::kCrashInSaveExitCode);
    }
    const uint32_t name_len = static_cast<uint32_t>(p->name.size());
    const int64_t rows = p->value.rows(), cols = p->value.cols();
    w.write_pod(name_len);
    w.write(p->name.data(), name_len);
    w.write_pod(rows);
    w.write_pod(cols);
    w.write(p->value.data(),
            static_cast<size_t>(p->value.size()) * sizeof(float));
    w.emit_crc();
    if (!w.ok()) return "write failed (param " + p->name + ")";
  }

  *opt_section_off = std::ftell(f);
  OptimizerBlob blob;
  *saved_state = opt != nullptr && capture_optimizer_blob(*opt, params, &blob);
  const uint8_t has_opt = *saved_state ? 1 : 0;
  w.write_pod(has_opt);
  if (*saved_state) {
    const std::string name = opt->name();
    const uint32_t name_len = static_cast<uint32_t>(name.size());
    w.write_pod(name_len);
    w.write(name.data(), name_len);
    w.write_blob(blob.bytes.get(), blob.size);
  }
  w.emit_crc();
  w.write_raw(kEndMagic, 4);
  if (!w.ok()) return "write failed (optimizer section)";
  return std::string();
}

void backoff_sleep(int attempt) {
  // 10ms, 40ms, 160ms — bounded, long enough for transient EAGAIN/ENOSPC
  // blips to clear, short enough to never matter on the happy path.
  timespec ts{};
  ts.tv_nsec = 10L * 1000 * 1000 << (2 * attempt);
  nanosleep(&ts, nullptr);
}

// Post-commit fault hooks: corrupt the just-renamed checkpoint in the ways
// a less careful writer (or failing hardware) would, so auto-resume's CRC
// scan has something real to detect.
void apply_post_commit_faults(const std::string& path, int64_t step,
                              long opt_section_off) {
  if (fault::take_at_or_after(fault::Kind::kTruncCkpt, step)) {
    FilePtr f(std::fopen(path.c_str(), "rb"));
    long size = 0;
    if (f) {
      std::fseek(f.get(), 0, SEEK_END);
      size = std::ftell(f.get());
      f.reset();
    }
    if (size > 0) {
      if (::truncate(path.c_str(), size / 2) != 0)
        std::fprintf(stderr, "[fault] trunc_ckpt: truncate failed\n");
    }
  }
  if (fault::take_at_or_after(fault::Kind::kBitflipOpt, step)) {
    FilePtr f(std::fopen(path.c_str(), "r+b"));
    if (f) {
      std::fseek(f.get(), 0, SEEK_END);
      const long size = std::ftell(f.get());
      // Midpoint of the optimizer section payload (before its CRC and the
      // end magic): detectable only by the section checksum.
      const long payload_end = size - 8;
      if (payload_end > opt_section_off) {
        const long off = opt_section_off + (payload_end - opt_section_off) / 2;
        std::fseek(f.get(), off, SEEK_SET);
        const int c = std::fgetc(f.get());
        if (c != EOF) {
          std::fseek(f.get(), off, SEEK_SET);
          std::fputc(c ^ 0x10, f.get());
        }
      }
    }
  }
}

}  // namespace

CheckpointResult save_checkpoint(const std::string& path,
                                 nn::LlamaModel& model, int64_t step,
                                 const optim::Optimizer* opt) {
  APOLLO_TRACE_SCOPE("save_checkpoint", "io");
  std::string err;
  for (int attempt = 0; attempt < kSaveAttempts; ++attempt) {
    if (attempt > 0) backoff_sleep(attempt - 1);
    long opt_section_off = 0;
    bool saved_state = false;
    err = commit_file(path, [&](std::FILE* f) {
      return write_payload(f, model, step, opt, &opt_section_off,
                           &saved_state);
    });
    if (err.empty()) {
      apply_post_commit_faults(path, step, opt_section_off);
      CheckpointResult r;
      r.ok = true;
      r.step = step;
      r.optimizer_state_restored = saved_state;  // saved, symmetrically
      return r;
    }
  }
  return fail(err + " (after " + std::to_string(kSaveAttempts) +
              " attempts)");
}

namespace {

// Reads the sections after the header; `rd` continues the header's reader.
CheckpointResult load_v3(CrcReader& rd, std::FILE* f, const std::string& path,
                         const nn::ParamList& params, optim::Optimizer* opt) {
  for (nn::Parameter* p : params) {
    uint32_t name_len = 0;
    if (!rd.read_pod(name_len) || name_len > 4096)
      return fail("truncated param header near " + p->name);
    std::string name(name_len, '\0');
    int64_t rows = 0, cols = 0;
    if (!rd.read(name.data(), name_len) || !rd.read_pod(rows) ||
        !rd.read_pod(cols))
      return fail("truncated param header near " + p->name);
    if (name != p->name)
      return fail("parameter name mismatch: file '" + name + "' vs model '" +
                  p->name + "'");
    if (rows != p->value.rows() || cols != p->value.cols())
      return fail("shape mismatch for " + name);
    if (!rd.read(p->value.data(),
                 static_cast<size_t>(p->value.size()) * sizeof(float)))
      return fail("truncated data for " + name);
    if (!rd.check_crc())
      return fail(rd.ok() ? "CRC mismatch in parameter section '" + name +
                                "': " + path
                          : "truncated parameter section '" + name +
                                "': " + path);
  }

  CheckpointResult r;
  uint8_t has_opt = 0;
  if (!rd.read_pod(has_opt))
    return fail("truncated optimizer section: " + path);
  std::string opt_name;
  std::vector<char> blob;
  if (has_opt != 0) {
    uint32_t name_len = 0;
    if (!rd.read_pod(name_len) || name_len > 4096)
      return fail("truncated optimizer section: " + path);
    opt_name.assign(name_len, '\0');
    std::string bad_length;
    if (!rd.read(opt_name.data(), name_len) ||
        !rd.read_blob(&blob, &bad_length))
      return fail(bad_length.empty()
                      ? "truncated optimizer section: " + path
                      : "optimizer blob " + bad_length + ": " + path);
  }
  if (!rd.check_crc())
    return fail(rd.ok() ? "CRC mismatch in optimizer section: " + path
                        : "truncated optimizer section: " + path);
  char end_magic[4];
  if (std::fread(end_magic, 1, 4, f) != 4 ||
      std::memcmp(end_magic, kEndMagic, 4) != 0)
    return fail("missing end marker (truncated tail): " + path);

  r.ok = true;
  if (has_opt != 0 && opt != nullptr && opt_name == opt->name()) {
    // The blob is already CRC-verified; hand the optimizer an in-memory
    // stream so a short blob surfaces as a load failure, not a file error.
    std::FILE* mf = fmemopen(blob.data(), blob.size(), "rb");
    if (mf == nullptr) return fail("cannot open optimizer blob: " + path);
    const bool loaded = opt->load_state(mf, params);
    std::fclose(mf);
    if (!loaded)
      return fail("failed to restore optimizer state (" + opt_name + ")");
    r.optimizer_state_restored = true;
  }
  return r;
}

}  // namespace

CheckpointResult load_checkpoint(const std::string& path,
                                 nn::LlamaModel& model,
                                 optim::Optimizer* opt) {
  APOLLO_TRACE_SCOPE("load_checkpoint", "io");
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return fail("cannot open for reading: " + path);

  // A zero-byte file is what a crashed non-atomic writer leaves behind the
  // moment after open(O_TRUNC); report it distinctly from garbage content.
  std::fseek(f.get(), 0, SEEK_END);
  if (std::ftell(f.get()) == 0)
    return fail("empty checkpoint file: " + path);
  std::fseek(f.get(), 0, SEEK_SET);

  char magic[4];
  if (std::fread(magic, 1, 4, f.get()) != 4)
    return fail("truncated header: " + path);
  if (std::memcmp(magic, kMagic, 4) != 0)
    return fail("bad magic (not an APOLLO checkpoint): " + path);

  // Header section: the CRC covers version|step|count.
  CrcReader rd(f.get());
  uint32_t version = 0;
  if (!rd.read_pod(version)) return fail("truncated header: " + path);
  if (version != kVersion)
    return fail("unsupported checkpoint version " + std::to_string(version));
  int64_t step = 0;
  uint32_t count = 0;
  if (!rd.read_pod(step) || !rd.read_pod(count) || !rd.check_crc())
    return fail(rd.ok() ? "CRC mismatch in header: " + path
                        : "truncated header: " + path);
  auto params = model.parameters();
  if (count != params.size())
    return fail("parameter count mismatch: file has " +
                std::to_string(count) + ", model has " +
                std::to_string(params.size()));

  CheckpointResult r = load_v3(rd, f.get(), path, params, opt);
  if (r.ok) r.step = step;
  return r;
}

}  // namespace apollo::train
