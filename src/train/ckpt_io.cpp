#include "train/ckpt_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>
#include <ctime>

#include "fault/fault_injection.h"
#include "tensor/matrix.h"

namespace apollo::train {

namespace {

constexpr int kCommitAttempts = 3;

// One commit attempt. On success *size and *mid are the committed file's
// size and CrcWriter::last_section_mid(): where the post-commit faults aim.
std::string commit_once(const std::string& path, int64_t step,
                        const std::function<std::string(CrcWriter&)>& write,
                        int64_t* size, int64_t* mid) {
  const std::string tmp = path + ".tmp";
  FilePtr f(std::fopen(tmp.c_str(), "wb"));
  if (!f) return "cannot open for writing: " + tmp;
  CrcWriter w(f.get());
  std::string err = write(w);
  if (err.empty() && !w.ok()) err = "write failed";
  if (err.empty() &&
      fault::take_at_or_after(fault::Kind::kCrashInSave, step)) {
    // A simulated kill halfway through the save: half of the temp reaches
    // disk and the process dies without any cleanup, like a SIGKILL.
    std::fflush(f.get());
    if (::ftruncate(::fileno(f.get()), w.bytes() / 2) != 0)
      std::fprintf(stderr, "[fault] crash_save: truncate failed\n");
    std::_Exit(fault::kCrashInSaveExitCode);
  }
  // Durability: flush user-space buffers, then the kernel's, then commit
  // via rename, then make the rename itself durable.
  if (err.empty() &&
      (std::fflush(f.get()) != 0 || ::fsync(::fileno(f.get())) != 0))
    err = "fsync failed";
  f.reset();
  if (!err.empty())
    err += ": " + tmp;
  else if (std::rename(tmp.c_str(), path.c_str()) != 0)
    err = "rename failed: " + tmp + " -> " + path;
  if (!err.empty()) {
    std::remove(tmp.c_str());
    return err;
  }
  *size = w.bytes();
  *mid = w.last_section_mid();
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  return std::string();
}

// Flips one bit of the committed file at `off`, if the file reaches it.
void flip_bit(const std::string& path, int64_t off) {
  FilePtr f(std::fopen(path.c_str(), "r+b"));
  if (!f || std::fseek(f.get(), off, SEEK_SET) != 0) return;
  const int c = std::fgetc(f.get());
  if (c == EOF) return;
  std::fseek(f.get(), off, SEEK_SET);
  std::fputc(c ^ 0x10, f.get());
}

}  // namespace

std::string commit_file(const std::string& path, int64_t step,
                        const std::function<std::string(CrcWriter&)>& write) {
  int64_t size = 0, mid = -1;
  std::string err;
  for (int attempt = 0; attempt < kCommitAttempts; ++attempt) {
    if (attempt > 0) {
      // 10 ms, then 40 ms: long enough for a transient EAGAIN/ENOSPC blip
      // to clear, and never paid on the happy path.
      timespec ts{};
      ts.tv_nsec = 10L * 1000 * 1000 << (2 * (attempt - 1));
      nanosleep(&ts, nullptr);
    }
    err = commit_once(path, step, write, &size, &mid);
    if (err.empty()) break;
  }
  if (!err.empty())
    return err + " (after " + std::to_string(kCommitAttempts) + " attempts)";
  // The torn write a non-atomic writer would have left, and bit rot that
  // only the section CRC catches.
  if (fault::take_at_or_after(fault::Kind::kTruncCkpt, step) &&
      ::truncate(path.c_str(), size / 2) != 0)
    std::fprintf(stderr, "[fault] trunc_ckpt: truncate failed\n");
  if (fault::take_at_or_after(fault::Kind::kBitflipOpt, step) && mid >= 0)
    flip_bit(path, mid);
  return std::string();
}

bool capture_optimizer_blob(const optim::Optimizer& opt,
                            const nn::ParamList& params, OptimizerBlob* out) {
  trim_matrix_storage_cache();
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* mf = open_memstream(&buf, &len);
  if (mf == nullptr) return false;
  const bool saved = opt.save_state(mf, params);
  std::fclose(mf);
  out->bytes.reset(buf);
  out->size = len;
  return saved;
}

}  // namespace apollo::train
