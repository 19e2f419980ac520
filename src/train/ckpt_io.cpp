#include "train/ckpt_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>

#include "tensor/matrix.h"

namespace apollo::train {

std::string commit_file(const std::string& path,
                        const std::function<std::string(std::FILE*)>& write) {
  const std::string tmp = path + ".tmp";
  FilePtr f(std::fopen(tmp.c_str(), "wb"));
  if (!f) return "cannot open for writing: " + tmp;
  std::string err = write(f.get());
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

bool capture_optimizer_blob(const optim::Optimizer& opt,
                            const nn::ParamList& params, OptimizerBlob* out) {
  trim_matrix_storage_cache();
  char* buf = nullptr;
  size_t len = 0;
  std::FILE* mf = open_memstream(&buf, &len);
  if (mf == nullptr) return false;
  const bool supported = opt.save_state(mf, params);
  std::fclose(mf);
  out->bytes.reset(buf);
  out->size = len;
  return supported;
}

}  // namespace apollo::train
