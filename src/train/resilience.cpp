#include "train/resilience.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>

#include "nn/llama.h"
#include "nn/parameter.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "tensor/matrix.h"
#include "train/ckpt_io.h"

namespace apollo::train {

namespace fs = std::filesystem;

// --- divergence watchdog ---------------------------------------------------

std::string DivergenceWatchdog::check(double loss, double grad_norm) const {
  if (!std::isfinite(loss))
    return "non-finite loss (" + std::to_string(loss) + ")";
  if (!std::isfinite(grad_norm))
    return "non-finite gradient norm (" + std::to_string(grad_norm) + ")";
  if (history_size() >= cfg_.min_history) {
    const double med = running_median();
    if (med > 0.0 && loss > cfg_.spike_factor * med)
      return "loss spike: " + std::to_string(loss) + " > " +
             std::to_string(cfg_.spike_factor) + " x running median " +
             std::to_string(med);
  }
  return std::string();
}

void DivergenceWatchdog::observe(double loss) {
  window_.push_back(loss);
  while (static_cast<int>(window_.size()) > cfg_.median_window)
    window_.pop_front();
}

void DivergenceWatchdog::reset_history() { window_.clear(); }

double DivergenceWatchdog::running_median() const {
  if (window_.empty()) return 0.0;
  std::vector<double> v(window_.begin(), window_.end());
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

// --- rotating checkpoints + auto-resume ------------------------------------

namespace {

// Parses `ckpt_<step>.aplo` filenames; returns -1 for anything else.
int64_t step_of_filename(const std::string& name) {
  constexpr const char* kPrefix = "ckpt_";
  constexpr const char* kSuffix = ".aplo";
  if (name.rfind(kPrefix, 0) != 0) return -1;
  const size_t suffix_at = name.size() >= 5 ? name.size() - 5 : 0;
  if (name.compare(suffix_at, 5, kSuffix) != 0) return -1;
  int64_t step = 0;
  const size_t digits_begin = 5;  // strlen("ckpt_")
  if (suffix_at <= digits_begin) return -1;
  for (size_t i = digits_begin; i < suffix_at; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    step = step * 10 + (name[i] - '0');
  }
  return step;
}

}  // namespace

CheckpointRotator::CheckpointRotator(std::string dir, int keep)
    : dir_(std::move(dir)), keep_(std::max(1, keep)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  // A crash mid-save leaves a `.tmp` behind; it is not a checkpoint and
  // must never shadow one, so sweep stale temps on startup.
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0)
      fs::remove(entry.path(), ec);
  }
}

std::string CheckpointRotator::path_for(const std::string& dir,
                                        int64_t step) {
  return dir + "/ckpt_" + std::to_string(step) + ".aplo";
}

std::vector<int64_t> CheckpointRotator::list_steps(const std::string& dir) {
  std::vector<int64_t> steps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const int64_t s = step_of_filename(entry.path().filename().string());
    if (s >= 0) steps.push_back(s);
  }
  std::sort(steps.begin(), steps.end());
  return steps;
}

CheckpointResult CheckpointRotator::save(nn::LlamaModel& model, int64_t step,
                                         const optim::Optimizer* opt) {
  CheckpointResult r = save_checkpoint(path_for(dir_, step), model, step, opt);
  if (!r.ok) return r;
  std::vector<int64_t> steps = list_steps(dir_);
  std::error_code ec;
  while (static_cast<int>(steps.size()) > keep_) {
    fs::remove(path_for(dir_, steps.front()), ec);
    steps.erase(steps.begin());
  }
  return r;
}

namespace {

// Loads the checkpoint at one step for resume_newest_first. Returns true
// once it is loaded (filling rr->step and rr->optimizer_state_restored), or
// false with the skip reason in *why. Setting rr->error ends the scan.
using StepLoader =
    std::function<bool(int64_t step, ResumeResult* rr, std::string* why)>;

// The newest-first scan behind both resume kinds. Each skip is counted in
// `ckpt.corrupt_skipped`; `kind` names the files in the final error.
ResumeResult resume_newest_first(const std::string& dir,
                                 nn::LlamaModel& model, const char* kind,
                                 const StepLoader& load_step) {
  ResumeResult rr;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return rr;
  std::vector<int64_t> steps = CheckpointRotator::list_steps(dir);
  if (steps.empty()) return rr;
  obs::Counter& skipped = obs::Registry::instance().counter(
      "ckpt.corrupt_skipped");
  // A corrupt file can be rejected halfway through loading, after some
  // parameters were already overwritten; snapshot the weights so a fully
  // failed scan hands back the model untouched.
  auto params = model.parameters();
  std::vector<Matrix> snapshot;
  snapshot.reserve(params.size());
  for (const nn::Parameter* p : params) snapshot.push_back(p->value);
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    std::string why;
    if (load_step(*it, &rr, &why)) {
      rr.resumed = true;
      return rr;
    }
    if (!rr.error.empty()) return rr;
    skipped.add(1);
    rr.skipped.push_back(std::move(why));
  }
  for (size_t i = 0; i < params.size(); ++i)
    params[i]->value = snapshot[i];
  rr.error = std::string("no loadable ") + kind + " among " +
             std::to_string(steps.size()) + " candidate(s) in " + dir;
  return rr;
}

}  // namespace

ResumeResult auto_resume(const std::string& dir, nn::LlamaModel& model,
                         optim::Optimizer* opt) {
  return resume_newest_first(
      dir, model, "checkpoint",
      [&](int64_t step, ResumeResult* rr, std::string* why) {
        const std::string path = CheckpointRotator::path_for(dir, step);
        const CheckpointResult r = load_checkpoint(path, model, opt);
        if (!r.ok) {
          *why = path + ": " + r.error;
          return false;
        }
        rr->step = r.step;
        rr->optimizer_state_restored = r.optimizer_state_restored;
        return true;
      });
}

// --- DDP shard checkpoints -------------------------------------------------

namespace {

constexpr char kShardMagic[4] = {'A', 'P', 'S', 'D'};
constexpr char kShardEndMagic[4] = {'D', 'S', 'P', 'A'};
constexpr uint32_t kShardVersion = 1;

// Parses `ckpt_<step>.shard<rank>of<world>.aplo`; false for anything else.
bool parse_shard_filename(const std::string& name, int64_t* step, int* rank,
                          int* world) {
  const auto digits = [](const std::string& s, size_t b, size_t e,
                         int64_t* out) {
    if (e <= b) return false;
    int64_t v = 0;
    for (size_t i = b; i < e; ++i) {
      if (s[i] < '0' || s[i] > '9') return false;
      v = v * 10 + (s[i] - '0');
      if (v > (int64_t{1} << 40)) return false;
    }
    *out = v;
    return true;
  };
  if (name.rfind("ckpt_", 0) != 0) return false;
  if (name.size() < 5 || name.compare(name.size() - 5, 5, ".aplo") != 0)
    return false;
  const size_t shard_at = name.find(".shard");
  if (shard_at == std::string::npos) return false;
  const size_t of_at = name.find("of", shard_at + 6);
  if (of_at == std::string::npos) return false;
  int64_t s = 0, r = 0, w = 0;
  if (!digits(name, 5, shard_at, &s) ||
      !digits(name, shard_at + 6, of_at, &r) ||
      !digits(name, of_at + 2, name.size() - 5, &w))
    return false;
  if (w < 1 || r >= w) return false;
  *step = s;
  *rank = static_cast<int>(r);
  *world = static_cast<int>(w);
  return true;
}

}  // namespace

std::string shard_path_for(const std::string& dir, int64_t step, int rank,
                           int world) {
  return dir + "/ckpt_" + std::to_string(step) + ".shard" +
         std::to_string(rank) + "of" + std::to_string(world) + ".aplo";
}

bool save_state_shard(const std::string& path, const optim::Optimizer& opt,
                      const nn::ParamList& params, int64_t step, int rank,
                      int world, std::string* err) {
  const auto fail = [err](const std::string& msg) {
    if (err != nullptr) *err = msg;
    return false;
  };
  OptimizerBlob blob;
  if (!capture_optimizer_blob(opt, params, &blob))
    return fail("optimizer '" + opt.name() +
                "' does not support state serialization");
  const std::string e = commit_file(path, [&](std::FILE* f) {
    CrcWriter w(f);
    w.write_raw(kShardMagic, sizeof kShardMagic);
    w.write_pod(kShardVersion);
    w.write_pod(step);
    w.write_pod(static_cast<uint32_t>(rank));
    w.write_pod(static_cast<uint32_t>(world));
    const std::string opt_name = opt.name();
    w.write_pod(static_cast<uint32_t>(opt_name.size()));
    w.write(opt_name.data(), opt_name.size());
    w.emit_crc();
    w.write_blob(blob.bytes.get(), blob.size);
    w.emit_crc();
    w.write_raw(kShardEndMagic, sizeof kShardEndMagic);
    return w.ok() ? std::string() : std::string("write failed");
  });
  return e.empty() || fail(e);
}

bool read_state_shard(const std::string& path, int64_t expect_step,
                      int expect_rank, int* world_out, std::string* opt_name,
                      std::vector<char>* blob, std::string* err) {
  const auto fail = [err, &path](const std::string& msg) {
    if (err != nullptr) *err = path + ": " + msg;
    return false;
  };
  const FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return fail("cannot open");
  CrcReader rd(f.get());
  char magic[4] = {};
  if (std::fread(magic, 1, sizeof magic, f.get()) != sizeof magic ||
      std::memcmp(magic, kShardMagic, sizeof magic) != 0)
    return fail("bad magic");
  uint32_t version = 0, rank = 0, world = 0, name_len = 0;
  int64_t step = 0;
  if (!rd.read_pod(version) || !rd.read_pod(step) || !rd.read_pod(rank) ||
      !rd.read_pod(world) || !rd.read_pod(name_len))
    return fail("truncated header");
  if (version != kShardVersion)
    return fail("unsupported shard version " + std::to_string(version));
  if (name_len > 256) return fail("implausible optimizer name length");
  std::string name(name_len, '\0');
  if (!rd.read(name.data(), name_len)) return fail("truncated header");
  if (!rd.check_crc()) return fail("CRC mismatch in header");
  if (step != expect_step)
    return fail("step mismatch: holds " + std::to_string(step));
  if (static_cast<int>(rank) != expect_rank)
    return fail("rank mismatch: holds " + std::to_string(rank));
  std::vector<char> bytes;
  std::string bad_length;
  if (!rd.read_blob(&bytes, &bad_length))
    return fail(bad_length.empty() ? "truncated state blob"
                                   : "state blob " + bad_length);
  if (!rd.check_crc()) return fail("CRC mismatch in state blob");
  char end[4] = {};
  if (std::fread(end, 1, sizeof end, f.get()) != sizeof end ||
      std::memcmp(end, kShardEndMagic, sizeof end) != 0)
    return fail("missing end magic");
  if (world_out != nullptr) *world_out = static_cast<int>(world);
  if (opt_name != nullptr) *opt_name = std::move(name);
  if (blob != nullptr) *blob = std::move(bytes);
  return true;
}

int shard_world_at(const std::string& dir, int64_t step) {
  std::error_code ec;
  std::vector<std::pair<int, int>> seen;  // (world, rank) pairs for `step`
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    int64_t s = 0;
    int r = 0, w = 0;
    if (parse_shard_filename(entry.path().filename().string(), &s, &r, &w) &&
        s == step)
      seen.emplace_back(w, r);
  }
  std::sort(seen.begin(), seen.end());
  int best = 0;
  for (size_t i = 0; i < seen.size();) {
    const int w = seen[i].first;
    int have = 0;
    int expect = 0;
    for (; i < seen.size() && seen[i].first == w; ++i)
      if (seen[i].second == expect) {
        ++have;
        ++expect;
      }
    if (have == w && w > best) best = w;
  }
  return best;
}

// Every rank builds `weights_` and so sweeps stale temps; concurrent
// removals are benign (remove with an error_code tolerates a peer getting
// there first).
DdpCheckpointRotator::DdpCheckpointRotator(std::string dir, int keep,
                                           int rank, int world)
    : weights_(std::move(dir), keep), rank_(rank), world_(world) {}

bool DdpCheckpointRotator::save(nn::LlamaModel& model, int64_t step,
                                const optim::Optimizer& opt,
                                std::string* err) {
  if (rank_ == 0) {
    // Weights-only v3 file: the optimizer state lives in the shards.
    const CheckpointResult r = weights_.save(model, step, nullptr);
    if (!r.ok) {
      if (err != nullptr) *err = r.error;
      return false;
    }
  }
  if (!save_state_shard(shard_path_for(dir(), step, rank_, world_), opt,
                        model.parameters(), step, rank_, world_, err))
    return false;
  // Prune this rank's own shard files (any world width — older epochs of a
  // shrunk world included), newest keep retained.
  std::error_code ec;
  std::vector<std::pair<int64_t, std::string>> mine;
  for (const auto& entry : fs::directory_iterator(dir(), ec)) {
    int64_t s = 0;
    int r = 0, w = 0;
    if (parse_shard_filename(entry.path().filename().string(), &s, &r, &w) &&
        r == rank_)
      mine.emplace_back(s, entry.path().string());
  }
  std::sort(mine.begin(), mine.end());
  while (static_cast<int>(mine.size()) > weights_.keep()) {
    fs::remove(mine.front().second, ec);
    mine.erase(mine.begin());
  }
  return true;
}

ResumeResult auto_resume_ddp(const std::string& dir, nn::LlamaModel& model,
                             optim::Optimizer* opt) {
  return resume_newest_first(
      dir, model, "DDP checkpoint",
      [&](int64_t step, ResumeResult* rr, std::string* why) {
        const std::string wpath = CheckpointRotator::path_for(dir, step);
        const int w = shard_world_at(dir, step);
        if (w == 0) {
          *why = wpath + ": no complete optimizer shard set";
          return false;
        }
        // Validate the whole shard set in memory before touching any state
        // — a torn set must never leave the optimizer half-merged. The
        // transient cost is one unsharded optimizer footprint, paid only
        // during resume.
        std::vector<std::vector<char>> blobs(static_cast<size_t>(w));
        for (int r = 0; r < w; ++r)
          if (!read_state_shard(shard_path_for(dir, step, r, w), step, r,
                                nullptr, nullptr,
                                &blobs[static_cast<size_t>(r)], why))
            return false;
        const CheckpointResult wres = load_checkpoint(wpath, model, nullptr);
        if (!wres.ok) {
          *why = wpath + ": " + wres.error;
          return false;
        }
        const nn::ParamList params = model.parameters();
        bool merged = opt != nullptr;
        for (int r = 0; r < w && merged; ++r) {
          std::vector<char>& blob = blobs[static_cast<size_t>(r)];
          std::FILE* mf = fmemopen(blob.data(), blob.size(), "rb");
          merged = mf != nullptr && opt->merge_state(mf, params);
          if (mf != nullptr) std::fclose(mf);
        }
        if (opt != nullptr && !merged) {
          // CRC-valid bytes failing the structured parse means a writer bug
          // or an optimizer-family mismatch: resuming older state underneath
          // a half-merged optimizer would silently corrupt the trajectory.
          rr->error = "optimizer shard merge failed at step " +
                      std::to_string(step) + " in " + dir;
          return false;
        }
        rr->step = wres.step;
        rr->optimizer_state_restored = opt != nullptr;
        return true;
      });
}

}  // namespace apollo::train
