#include "train/resilience.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "nn/llama.h"
#include "nn/parameter.h"
#include "obs/metrics.h"
#include "optim/optimizer.h"
#include "tensor/check.h"
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

constexpr char kShardMagic[4] = {'A', 'P', 'S', 'D'};
constexpr char kShardEndMagic[4] = {'D', 'S', 'P', 'A'};
constexpr uint32_t kShardVersion = 1;

// Parses the decimal digits s[b, e) into *out. False when there are none,
// a character is not a digit, or the value passes INT_MAX: steps, ranks and
// widths are ints in the trainer.
bool parse_digits(const std::string& s, size_t b, size_t e, int* out) {
  if (e <= b) return false;
  int64_t v = 0;
  for (size_t i = b; i < e; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    v = v * 10 + (s[i] - '0');
    if (v > INT_MAX) return false;
  }
  *out = static_cast<int>(v);
  return true;
}

bool has_ckpt_affixes(const std::string& name) {
  return name.rfind("ckpt_", 0) == 0 && name.size() > 10 &&
         name.compare(name.size() - 5, 5, ".aplo") == 0;
}

// Parses `ckpt_<step>.aplo` filenames; returns -1 for anything else.
int64_t step_of_filename(const std::string& name) {
  int step = 0;
  return has_ckpt_affixes(name) && parse_digits(name, 5, name.size() - 5, &step)
             ? step
             : -1;
}

// Parses `ckpt_<step>.shard<rank>of<world>.aplo`; false for anything else.
bool parse_shard_filename(const std::string& name, int64_t* step, int* rank,
                          int* world) {
  if (!has_ckpt_affixes(name)) return false;
  const size_t shard_at = name.find(".shard");
  if (shard_at == std::string::npos) return false;
  const size_t of_at = name.find("of", shard_at + 6);
  if (of_at == std::string::npos) return false;
  int s = 0;
  if (!parse_digits(name, 5, shard_at, &s) ||
      !parse_digits(name, shard_at + 6, of_at, rank) ||
      !parse_digits(name, of_at + 2, name.size() - 5, world))
    return false;
  *step = s;
  return *world >= 1 && *rank < *world;
}

// True when every shard of `step`'s set at width `world` is on disk.
bool whole_shard_set(const std::string& dir, int64_t step, int world) {
  for (int k = 0; k < world; ++k)
    if (!fs::exists(shard_path_for(dir, step, k, world))) return false;
  return true;
}

}  // namespace

CheckpointRotator::CheckpointRotator(std::string dir, int keep, int rank,
                                     int world)
    : dir_(std::move(dir)), keep_(std::max(1, keep)), rank_(rank),
      world_(world) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  // A crash mid-save leaves a `.tmp` behind; it is not a checkpoint and
  // must never shadow one, so sweep stale temps on startup. Every rank of
  // a world sweeps; a removal a peer got to first is benign.
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
  CheckpointResult r;
  if (rank_ == 0) {
    r = save_checkpoint(path_for(dir_, step), model, step,
                        world_ == 1 ? opt : nullptr);
    if (!r.ok) return r;
  }
  if (world_ > 1) {
    APOLLO_CHECK_MSG(opt != nullptr, "a world's checkpoint needs its shards");
    r.ok = save_state_shard(shard_path_for(dir_, step, rank_, world_), *opt,
                            model.parameters(), step, rank_, world_,
                            &r.error);
    if (!r.ok) return r;
  }
  r.step = step;
  // The step is complete once every rank's shard is on disk; until then
  // the older steps are all that can be loaded, so they stay.
  if (world_ > 1 && !whole_shard_set(dir_, step, world_)) return r;
  const std::vector<int64_t> steps = list_steps(dir_);
  if (static_cast<int>(steps.size()) <= keep_) return r;
  // Whole steps rotate out: a shard of any width — an older world's
  // included — goes with its step. The step just saved always stays, even
  // beside newer files an earlier run left.
  const int64_t oldest_kept = std::min(
      step, steps[steps.size() - static_cast<size_t>(keep_)]);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    int64_t s = step_of_filename(name);
    int rank = 0, world = 0;
    if ((s >= 0 || parse_shard_filename(name, &s, &rank, &world)) &&
        s < oldest_kept)
      fs::remove(entry.path(), ec);
  }
  return r;
}

bool CheckpointRotator::save(nn::LlamaModel& model, int64_t step,
                             const optim::Optimizer& opt, std::string* err) {
  const CheckpointResult r = save(model, step, &opt);
  if (!r.ok && err != nullptr) *err = r.error;
  return r.ok;
}

namespace {

// Loads the checkpoint at one step for auto_resume. True once it is loaded
// (filling rr->step and rr->optimizer_state_restored); false with the skip
// reason in *why, and *torn set when the step is a world's save that never
// completed. Setting rr->error ends the scan.
bool load_step(const std::string& dir, int64_t step, nn::LlamaModel& model,
               optim::Optimizer* opt, ResumeResult* rr, std::string* why,
               bool* torn) {
  const std::string path = CheckpointRotator::path_for(dir, step);
  const CheckpointResult r = load_checkpoint(path, model, opt);
  // A renamed copy would resume elsewhere than its name says.
  if (!r.ok || r.step != step) {
    *why = path + ": " +
           (r.ok ? "step mismatch: holds " + std::to_string(r.step)
                 : r.error);
    return false;
  }
  rr->step = step;
  rr->optimizer_state_restored = r.optimizer_state_restored;
  if (r.has_optimizer_section || opt == nullptr) return true;
  const int w = shard_world_at(dir, step);
  if (w == 0) {
    *why = path + ": no complete optimizer shard set";
    *torn = true;
    return false;
  }
  // Validate the whole shard set in memory before touching any state — a
  // torn set must never leave the optimizer half-merged. The transient cost
  // is one unsharded optimizer footprint, paid only while loading.
  std::vector<std::vector<char>> blobs(static_cast<size_t>(w));
  std::string saved_by;
  for (int k = 0; k < w; ++k)
    if (!read_state_shard(shard_path_for(dir, step, k, w), step, k, w,
                          &saved_by, &blobs[static_cast<size_t>(k)], why))
      return false;
  // As with a file's own section, another optimizer's state is not ours to
  // merge: the weights resume alone.
  if (saved_by != opt->name()) return true;
  const nn::ParamList params = model.parameters();
  bool merged = true;
  for (int k = 0; k < w && merged; ++k) {
    std::vector<char>& blob = blobs[static_cast<size_t>(k)];
    std::FILE* mf = fmemopen(blob.data(), blob.size(), "rb");
    // The first shard is loaded, which clears what a rolled-back run
    // holds; the others merge into it.
    merged = mf != nullptr && (k == 0 ? opt->load_state(mf, params)
                                      : opt->merge_state(mf, params));
    if (mf != nullptr) std::fclose(mf);
  }
  if (!merged) {
    // CRC-valid bytes failing the structured parse means a writer bug or
    // crafted bytes: resuming older state underneath a half-merged
    // optimizer would silently corrupt the trajectory.
    rr->error = "optimizer shard merge failed at step " +
                std::to_string(step) + " in " + dir;
    return false;
  }
  rr->optimizer_state_restored = true;
  return true;
}

}  // namespace

ResumeResult auto_resume(const std::string& dir, nn::LlamaModel& model,
                         optim::Optimizer* opt, int64_t newest) {
  ResumeResult rr;
  std::vector<int64_t> steps = CheckpointRotator::list_steps(dir);
  steps.erase(std::upper_bound(steps.begin(), steps.end(), newest),
              steps.end());
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
  bool all_torn = true;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    std::string why;
    bool torn = false;
    if (load_step(dir, *it, model, opt, &rr, &why, &torn)) {
      rr.resumed = true;
      return rr;
    }
    if (!rr.error.empty()) return rr;
    all_torn = all_torn && torn;
    skipped.add(1);
    rr.skipped.push_back(std::move(why));
  }
  for (size_t i = 0; i < params.size(); ++i)
    params[i]->value = snapshot[i];
  // A world's step whose shard set never completed is a save a lost rank
  // left unfinished, as a single process leaves a `.tmp`: a directory
  // holding nothing else has nothing to resume.
  if (!all_torn)
    rr.error = "no loadable checkpoint among " +
               std::to_string(steps.size()) + " candidate(s) in " + dir;
  return rr;
}

// --- shard files -----------------------------------------------------------

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
    return fail("write failed (optimizer state): " + path);
  const std::string e = commit_file(path, step, [&](CrcWriter& w) {
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
    return std::string();
  });
  return e.empty() || fail(e);
}

bool read_state_shard(const std::string& path, int64_t expect_step,
                      int expect_rank, int expect_world,
                      std::string* opt_name, std::vector<char>* blob,
                      std::string* err) {
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
  if (static_cast<int>(world) != expect_world)
    return fail("world mismatch: holds " + std::to_string(world));
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
  if (opt_name != nullptr) *opt_name = std::move(name);
  if (blob != nullptr) *blob = std::move(bytes);
  return true;
}

int shard_world_at(const std::string& dir, int64_t step) {
  std::error_code ec;
  int best = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    int64_t s = 0;
    int r = 0, w = 0;
    if (parse_shard_filename(entry.path().filename().string(), &s, &r, &w) &&
        s == step && w > best && whole_shard_set(dir, step, w))
      best = w;
  }
  return best;
}

}  // namespace apollo::train
