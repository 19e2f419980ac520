// Resilience subsystem unit tests: divergence watchdog thresholds, LR
// backoff sequence + probation restore, checkpoint rotation by whole steps,
// bit-identical rollback, and the newest-first auto-resume scan that skips
// corrupt checkpoints and shard sets.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/apollo.h"
#include "core/factory.h"
#include "data/corpus.h"
#include "obs/metrics.h"
#include "train/resilience.h"

namespace apollo {
namespace {

namespace fs = std::filesystem;

// --- watchdog ----------------------------------------------------------------

TEST(Watchdog, NonFiniteLossOrGradFlagsImmediately) {
  train::DivergenceWatchdog wd(train::WatchdogConfig{});
  EXPECT_NE(wd.check(std::nan(""), 1.0), "");
  EXPECT_NE(wd.check(HUGE_VAL, 1.0), "");
  EXPECT_NE(wd.check(2.0, std::nan("")), "");
  EXPECT_NE(wd.check(2.0, HUGE_VAL), "");
  EXPECT_EQ(wd.check(2.0, 1.0), "");  // finite, no history → healthy
}

TEST(Watchdog, SpikeArmsOnlyAfterMinHistory) {
  train::WatchdogConfig cfg;
  cfg.spike_factor = 10.0;
  cfg.min_history = 5;
  train::DivergenceWatchdog wd(cfg);
  // Before min_history healthy losses, even a huge step is tolerated.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(wd.check(1e9, 1.0), "") << "step " << i;
    wd.observe(4.0);
  }
  wd.observe(4.0);  // fifth healthy loss arms spike detection
  EXPECT_DOUBLE_EQ(wd.running_median(), 4.0);
  EXPECT_EQ(wd.check(39.9, 1.0), "");       // just under 10x median
  EXPECT_NE(wd.check(40.1, 1.0), "");       // just over
  const std::string why = wd.check(1e9, 1.0);
  EXPECT_NE(why.find("spike"), std::string::npos) << why;
}

TEST(Watchdog, MedianTracksWindowAndResets) {
  train::WatchdogConfig cfg;
  cfg.median_window = 3;
  train::DivergenceWatchdog wd(cfg);
  wd.observe(1.0);
  wd.observe(100.0);
  wd.observe(2.0);
  EXPECT_DOUBLE_EQ(wd.running_median(), 2.0);  // {1, 100, 2}
  wd.observe(3.0);                             // evicts 1.0 → {100, 2, 3}
  EXPECT_DOUBLE_EQ(wd.running_median(), 3.0);
  EXPECT_EQ(wd.history_size(), 3);
  wd.reset_history();
  EXPECT_EQ(wd.history_size(), 0);
  EXPECT_DOUBLE_EQ(wd.running_median(), 0.0);
}

TEST(LrBackoff, HalvesPerRollbackAndRestoresAfterProbation) {
  train::LrBackoff b(0.5f, /*probation=*/3);
  EXPECT_FLOAT_EQ(b.scale(), 1.0f);
  EXPECT_FALSE(b.in_probation());
  b.on_rollback();
  EXPECT_FLOAT_EQ(b.scale(), 0.5f);
  b.on_rollback();
  EXPECT_FLOAT_EQ(b.scale(), 0.25f);
  EXPECT_TRUE(b.in_probation());
  b.on_good_step();
  b.on_good_step();
  EXPECT_FLOAT_EQ(b.scale(), 0.25f);  // probation not yet served
  b.on_good_step();
  EXPECT_FLOAT_EQ(b.scale(), 1.0f);  // restored at full schedule strength
  EXPECT_FALSE(b.in_probation());
  // A rollback resets the good-step streak.
  b.on_rollback();
  b.on_good_step();
  b.on_rollback();
  b.on_good_step();
  b.on_good_step();
  EXPECT_FLOAT_EQ(b.scale(), 0.25f);
}

// --- rotation + auto-resume --------------------------------------------------

nn::LlamaConfig tiny() {
  nn::LlamaConfig c;
  c.vocab = 48;
  c.hidden = 16;
  c.intermediate = 40;
  c.n_heads = 2;
  c.n_layers = 1;
  c.seq_len = 8;
  return c;
}

struct FixedBatches {
  std::vector<std::vector<int32_t>> ids, targets;
  explicit FixedBatches(int n) {
    data::CorpusConfig ccfg;
    ccfg.vocab = 48;
    data::SyntheticCorpus corpus(ccfg);
    data::BatchLoader loader(corpus, 2, 8, 5);
    ids.resize(static_cast<size_t>(n));
    targets.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
      loader.next(ids[static_cast<size_t>(i)],
                  targets[static_cast<size_t>(i)]);
  }
};

void train_steps(nn::LlamaModel& model, optim::Optimizer& opt,
                 const FixedBatches& data, int from, int to) {
  for (int s = from; s < to; ++s) {
    model.zero_grads();
    ag::Tape tape;
    tape.backward(model.loss(tape, data.ids[static_cast<size_t>(s)],
                             data.targets[static_cast<size_t>(s)]));
    opt.set_lr(1e-3f);
    opt.step(model.parameters());
  }
}

std::string fresh_dir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + name;
  fs::remove_all(dir);
  return dir;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void corrupt_middle_byte(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr) << path;
  std::fseek(f, 0, SEEK_END);
  const long mid = std::ftell(f) / 2;
  std::fseek(f, mid, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, mid, SEEK_SET);
  std::fputc(c ^ 0x40, f);
  std::fclose(f);
}

TEST(Rotator, KeepsNewestKAndSweepsTmpLeftovers) {
  const std::string dir = fresh_dir("rot_keep");
  nn::LlamaModel m(tiny(), 1);
  {
    train::CheckpointRotator rot(dir, /*keep=*/2);
    for (int64_t s : {10, 20, 30}) ASSERT_TRUE(rot.save(m, s, nullptr).ok);
  }
  EXPECT_EQ(train::CheckpointRotator::list_steps(dir),
            (std::vector<int64_t>{20, 30}));
  EXPECT_FALSE(fs::exists(train::CheckpointRotator::path_for(dir, 10)));

  // A stale temp file (crashed save) is swept by the next construction.
  const std::string stale =
      train::CheckpointRotator::path_for(dir, 40) + ".tmp";
  std::ofstream(stale, std::ios::binary) << "partial";
  ASSERT_TRUE(fs::exists(stale));
  train::CheckpointRotator rot2(dir, 2);
  EXPECT_FALSE(fs::exists(stale));
  // Committed checkpoints are untouched by the sweep.
  EXPECT_EQ(train::CheckpointRotator::list_steps(dir),
            (std::vector<int64_t>{20, 30}));
  fs::remove_all(dir);
}

// A save after a rollback can write a step older than files the abandoned
// attempt left; rotation never prunes the step it just saved.
TEST(Rotator, NeverPrunesTheStepItJustSaved) {
  const std::string dir = fresh_dir("rot_resave");
  nn::LlamaModel m(tiny(), 1);
  train::CheckpointRotator rot(dir, /*keep=*/1);
  for (int64_t s : {4, 8}) ASSERT_TRUE(rot.save(m, s, nullptr).ok);
  EXPECT_EQ(train::CheckpointRotator::list_steps(dir),
            (std::vector<int64_t>{8}));
  ASSERT_TRUE(rot.save(m, 4, nullptr).ok);
  EXPECT_EQ(train::CheckpointRotator::list_steps(dir),
            (std::vector<int64_t>{4, 8}));
  fs::remove_all(dir);
}

// The checkpoint files in `dir`, sorted.
std::vector<std::string> files_in(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir))
    out.push_back(entry.path().filename().string());
  std::sort(out.begin(), out.end());
  return out;
}

// Rotation keeps whole steps: after a world shrinks from 2 ranks to 1 (and
// writes single-process files), and after a 3-rank world continues the
// run, the directory holds the files of the newest `keep` steps and
// nothing of an older step, whatever width wrote it. A world's step prunes
// only once its shard set is complete, so until the last rank commits, the
// older steps stay loadable.
TEST(Rotator, PrunesWholeStepsAtEveryWidth) {
  const std::string dir = fresh_dir("rot_widths");
  nn::LlamaModel m(tiny(), 1);
  core::Apollo opt(core::ApolloConfig{});
  std::string err;
  for (const int64_t step : {2, 4})
    for (int r = 0; r < 2; ++r) {
      train::CheckpointRotator rot(dir, 2, r, 2);
      opt.set_shard(r, 2);
      ASSERT_TRUE(rot.save(m, step, opt, &err)) << err;
    }
  opt.set_shard(0, 1);
  train::CheckpointRotator shrunk(dir, 2, 0, 1);
  for (const int64_t step : {6, 8})
    ASSERT_TRUE(shrunk.save(m, step, &opt).ok);
  EXPECT_EQ(files_in(dir),
            (std::vector<std::string>{"ckpt_6.aplo", "ckpt_8.aplo"}));
  for (int r = 0; r < 3; ++r) {
    train::CheckpointRotator rot(dir, 2, r, 3);
    opt.set_shard(r, 3);
    ASSERT_TRUE(rot.save(m, 10, opt, &err)) << err;
    if (r < 2) {
      EXPECT_EQ(train::CheckpointRotator::list_steps(dir),
                (std::vector<int64_t>{6, 8, 10}));
    }
  }
  EXPECT_EQ(files_in(dir),
            (std::vector<std::string>{
                "ckpt_10.aplo", "ckpt_10.shard0of3.aplo",
                "ckpt_10.shard1of3.aplo", "ckpt_10.shard2of3.aplo",
                "ckpt_8.aplo"}));
  fs::remove_all(dir);
}

TEST(Rotator, RollbackRestoresBitIdenticalWeightsAndOptimizerState) {
  const FixedBatches data(13);
  for (const std::string& name : core::known_optimizers()) {
    SCOPED_TRACE(name);
    const std::string dir = fresh_dir("rot_bitident");
    nn::LlamaModel model(tiny(), 1);
    core::FactoryOptions fo;
    fo.update_freq = 6;
    auto opt = core::make_optimizer(name, fo);
    train_steps(model, *opt, data, 0, 10);

    train::CheckpointRotator rot(dir, 4);
    ASSERT_TRUE(rot.save(model, 10, opt.get()).ok);
    const std::string before =
        read_bytes(train::CheckpointRotator::path_for(dir, 10));
    ASSERT_FALSE(before.empty());

    // Diverge, then roll back and re-save at the same step: the file must
    // be byte-identical, i.e. weights AND optimizer state round-trip.
    train_steps(model, *opt, data, 10, 13);
    auto rolled = train::load_checkpoint(
        train::CheckpointRotator::path_for(dir, 10), model, opt.get());
    ASSERT_TRUE(rolled.ok) << rolled.error;
    ASSERT_TRUE(rolled.optimizer_state_restored);
    ASSERT_TRUE(rot.save(model, 10, opt.get()).ok);
    const std::string after =
        read_bytes(train::CheckpointRotator::path_for(dir, 10));
    EXPECT_EQ(before, after);
    fs::remove_all(dir);
  }
}

TEST(AutoResume, EmptyOrMissingDirIsNotAnError) {
  const std::string dir = fresh_dir("resume_empty");
  nn::LlamaModel m(tiny(), 1);
  auto rr = train::auto_resume(dir, m, nullptr);
  EXPECT_FALSE(rr.resumed);
  EXPECT_TRUE(rr.error.empty());
  EXPECT_TRUE(rr.skipped.empty());
}

TEST(AutoResume, SkipsCorruptNewestWithReadableReasons) {
  const std::string dir = fresh_dir("resume_skip");
  obs::Registry::instance().reset();
  nn::LlamaModel m(tiny(), 1);
  train::CheckpointRotator rot(dir, 8);
  ASSERT_TRUE(rot.save(m, 10, nullptr).ok);
  ASSERT_TRUE(rot.save(m, 20, nullptr).ok);
  ASSERT_TRUE(rot.save(m, 30, nullptr).ok);
  // Newest truncated, middle bit-flipped — both must be skipped with
  // distinct reasons and the scan must land on step 10.
  const std::string p30 = train::CheckpointRotator::path_for(dir, 30);
  ASSERT_EQ(truncate(p30.c_str(),
                     static_cast<off_t>(fs::file_size(p30) / 2)),
            0);
  corrupt_middle_byte(train::CheckpointRotator::path_for(dir, 20));

  nn::LlamaModel fresh(tiny(), 2);
  auto rr = train::auto_resume(dir, fresh, nullptr);
  EXPECT_TRUE(rr.resumed) << rr.error;
  EXPECT_EQ(rr.step, 10);
  ASSERT_EQ(rr.skipped.size(), 2u);
  EXPECT_NE(rr.skipped[0].find("ckpt_30"), std::string::npos)
      << rr.skipped[0];
  EXPECT_NE(rr.skipped[1].find("ckpt_20"), std::string::npos)
      << rr.skipped[1];
  EXPECT_NE(rr.skipped[1].find("CRC mismatch"), std::string::npos)
      << rr.skipped[1];
  EXPECT_EQ(
      obs::Registry::instance().counter("ckpt.corrupt_skipped").value(), 2);
  // The loaded weights match the saved model.
  EXPECT_TRUE(fresh.parameters()[0]->value == m.parameters()[0]->value);
  obs::Registry::instance().reset();
  fs::remove_all(dir);
}

TEST(AutoResume, AllCorruptRestoresOriginalWeightsAndReportsError) {
  const std::string dir = fresh_dir("resume_allbad");
  nn::LlamaModel saved(tiny(), 1);
  train::CheckpointRotator rot(dir, 8);
  ASSERT_TRUE(rot.save(saved, 10, nullptr).ok);
  ASSERT_TRUE(rot.save(saved, 20, nullptr).ok);
  corrupt_middle_byte(train::CheckpointRotator::path_for(dir, 10));
  corrupt_middle_byte(train::CheckpointRotator::path_for(dir, 20));

  nn::LlamaModel fresh(tiny(), 2);
  const auto want = fresh.parameters()[0]->value;  // pre-scan init
  auto rr = train::auto_resume(dir, fresh, nullptr);
  EXPECT_FALSE(rr.resumed);
  EXPECT_EQ(rr.skipped.size(), 2u);
  EXPECT_NE(rr.error.find("no loadable checkpoint"), std::string::npos)
      << rr.error;
  // A half-applied corrupt load must not leak into the model: the scan
  // restores the pre-scan weights on total failure.
  EXPECT_TRUE(fresh.parameters()[0]->value == want);
  obs::Registry::instance().reset();
  fs::remove_all(dir);
}

// A name whose step passes INT_MAX (trainer steps are ints) names no
// checkpoint: it is not listed, so it costs the scan no skip.
TEST(AutoResume, OverlongStepNamesAreNotListed) {
  const std::string dir = fresh_dir("resume_overlong");
  obs::Registry::instance().reset();
  nn::LlamaModel m(tiny(), 1);
  train::CheckpointRotator rot(dir, 8);
  ASSERT_TRUE(rot.save(m, 10, nullptr).ok);
  std::ofstream(dir + "/ckpt_99999999999999999999.aplo").flush();
  std::ofstream(dir + "/ckpt_2147483648.aplo").flush();
  std::ofstream(dir + "/ckpt_10.shard99999999999999999999of1.aplo").flush();
  EXPECT_EQ(train::CheckpointRotator::list_steps(dir),
            (std::vector<int64_t>{10}));
  EXPECT_EQ(train::shard_world_at(dir, 10), 0);

  nn::LlamaModel fresh(tiny(), 2);
  const auto rr = train::auto_resume(dir, fresh, nullptr);
  EXPECT_TRUE(rr.resumed) << rr.error;
  EXPECT_EQ(rr.step, 10);
  EXPECT_TRUE(rr.skipped.empty());
  EXPECT_EQ(
      obs::Registry::instance().counter("ckpt.corrupt_skipped").value(), 0);
  obs::Registry::instance().reset();
  fs::remove_all(dir);
}

// A copy of ckpt_4 named ckpt_12 holds step 4: the scan skips it with its
// reason and resumes from the real newest step.
TEST(AutoResume, SkipsAFileWhoseHeaderStepDiffersFromItsName) {
  const std::string dir = fresh_dir("resume_renamed");
  nn::LlamaModel m(tiny(), 1);
  train::CheckpointRotator rot(dir, 8);
  ASSERT_TRUE(rot.save(m, 4, nullptr).ok);
  ASSERT_TRUE(rot.save(m, 8, nullptr).ok);
  fs::copy_file(train::CheckpointRotator::path_for(dir, 4),
                train::CheckpointRotator::path_for(dir, 12));

  nn::LlamaModel fresh(tiny(), 2);
  const auto rr = train::auto_resume(dir, fresh, nullptr);
  EXPECT_TRUE(rr.resumed) << rr.error;
  EXPECT_EQ(rr.step, 8);
  ASSERT_EQ(rr.skipped.size(), 1u);
  EXPECT_EQ(rr.skipped[0], train::CheckpointRotator::path_for(dir, 12) +
                               ": step mismatch: holds 4");
  obs::Registry::instance().reset();
  fs::remove_all(dir);
}

// Overwrites the u64 at byte `off` of `path`.
void patch_u64(const std::string& path, long off, uint64_t v) {
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr) << path;
  std::fseek(f, off, SEEK_SET);
  ASSERT_EQ(std::fwrite(&v, sizeof v, 1, f), 1u);
  std::fclose(f);
}

// A v3 checkpoint whose optimizer blob length runs one byte past the end of
// the file is skipped with a reason naming that length, before the length
// sizes any allocation, and the scan resumes from the older checkpoint.
TEST(AutoResume, SkipsOptimizerBlobLengthPastTheEndOfTheFile) {
  const std::string dir = fresh_dir("resume_blob_len");
  const FixedBatches data(2);
  nn::LlamaModel model(tiny(), 1);
  auto opt = core::Apollo::standard(core::ApolloConfig{});
  train_steps(model, *opt, data, 0, 2);
  train::CheckpointRotator rot(dir, 4);
  ASSERT_TRUE(rot.save(model, 10, opt.get()).ok);
  ASSERT_TRUE(rot.save(model, 20, opt.get()).ok);

  // Header (magic, version, step, count, CRC), the parameter sections, then
  // has_opt, the optimizer name and the u64 blob length.
  long off = 4 + 4 + 8 + 4 + 4;
  for (const nn::Parameter* p : model.parameters())
    off += static_cast<long>(4 + p->name.size() + 8 + 8 +
                             p->value.size() * sizeof(float) + 4);
  off += static_cast<long>(1 + 4 + opt->name().size());
  const std::string p20 = train::CheckpointRotator::path_for(dir, 20);
  const uint64_t bad = fs::file_size(p20) - static_cast<uint64_t>(off) - 8 + 1;
  patch_u64(p20, off, bad);

  nn::LlamaModel fresh(tiny(), 2);
  auto fresh_opt = core::Apollo::standard(core::ApolloConfig{});
  const auto rr = train::auto_resume(dir, fresh, fresh_opt.get());
  EXPECT_TRUE(rr.resumed) << rr.error;
  EXPECT_EQ(rr.step, 10);
  ASSERT_EQ(rr.skipped.size(), 1u);
  EXPECT_NE(rr.skipped[0].find("blob length " + std::to_string(bad)),
            std::string::npos)
      << rr.skipped[0];
  obs::Registry::instance().reset();
  fs::remove_all(dir);
}

// A world's step whose shard set never completed is the save a lost rank
// left unfinished. Alone in the directory it leaves nothing to resume, as
// a single process's `.tmp` does; beside a corrupt step the scan fails.
TEST(AutoResume, DdpStepWithoutItsWholeShardSetIsAnUnfinishedSave) {
  const std::string dir = fresh_dir("resume_torn");
  nn::LlamaModel model(tiny(), 1);
  core::Apollo opt(core::ApolloConfig{});
  std::string err;
  train::CheckpointRotator rank0(dir, 4, 0, 2);
  opt.set_shard(0, 2);
  ASSERT_TRUE(rank0.save(model, 4, opt, &err)) << err;
  nn::LlamaModel fresh(tiny(), 2);
  const Matrix want = fresh.parameters()[0]->value;
  core::Apollo fresh_opt(core::ApolloConfig{});
  auto rr = train::auto_resume(dir, fresh, &fresh_opt);
  EXPECT_FALSE(rr.resumed);
  EXPECT_TRUE(rr.error.empty()) << rr.error;
  ASSERT_EQ(rr.skipped.size(), 1u);
  EXPECT_EQ(rr.skipped[0], train::CheckpointRotator::path_for(dir, 4) +
                               ": no complete optimizer shard set");
  EXPECT_TRUE(fresh.parameters()[0]->value == want);

  opt.set_shard(0, 1);
  train::CheckpointRotator single(dir, 4);
  ASSERT_TRUE(single.save(model, 2, &opt).ok);
  corrupt_middle_byte(train::CheckpointRotator::path_for(dir, 2));
  rr = train::auto_resume(dir, fresh, &fresh_opt);
  EXPECT_FALSE(rr.resumed);
  EXPECT_EQ(rr.skipped.size(), 2u);
  EXPECT_NE(rr.error.find("no loadable checkpoint"), std::string::npos)
      << rr.error;
  obs::Registry::instance().reset();
  fs::remove_all(dir);
}

// The DDP twin: a shard whose blob length claims 2^39 bytes is skipped
// without allocating them, and every rank resumes from the older set.
TEST(AutoResume, DdpSkipsShardBlobLengthPastTheEndOfTheFile) {
  const std::string dir = fresh_dir("resume_shard_len");
  const FixedBatches data(2);
  nn::LlamaModel model(tiny(), 1);
  core::Apollo opt(core::ApolloConfig{});
  train_steps(model, opt, data, 0, 2);
  std::string err;
  for (const int64_t step : {2, 4}) {
    for (int r = 0; r < 2; ++r) {
      train::CheckpointRotator rot(dir, 4, r, 2);
      opt.set_shard(r, 2);
      ASSERT_TRUE(rot.save(model, step, opt, &err)) << err;
    }
  }
  // Header section (magic, version, step, rank, world, name length, name,
  // CRC), then the u64 blob length.
  const long off = static_cast<long>(4 + 4 + 8 + 4 + 4 + 4 +
                                     opt.name().size() + 4);
  patch_u64(train::shard_path_for(dir, 4, 0, 2), off, uint64_t{1} << 39);

  for (int r = 0; r < 2; ++r) {
    nn::LlamaModel fresh(tiny(), 2);
    core::Apollo fresh_opt(core::ApolloConfig{});
    fresh_opt.set_shard(r, 2);
    const auto rr = train::auto_resume(dir, fresh, &fresh_opt);
    EXPECT_TRUE(rr.resumed) << rr.error;
    EXPECT_EQ(rr.step, 2);
    ASSERT_EQ(rr.skipped.size(), 1u);
    EXPECT_NE(rr.skipped[0].find("blob length 549755813888"),
              std::string::npos)
        << rr.skipped[0];
  }
  obs::Registry::instance().reset();
  fs::remove_all(dir);
}

// A shard renamed into another width's set holds the world it was written
// in: the set it would complete is skipped, and every rank resumes from the
// older set.
TEST(AutoResume, DdpSkipsAShardWhoseHeaderWorldDiffersFromItsName) {
  const std::string dir = fresh_dir("resume_shard_world");
  const FixedBatches data(2);
  nn::LlamaModel model(tiny(), 1);
  core::Apollo opt(core::ApolloConfig{});
  train_steps(model, opt, data, 0, 2);
  std::string err;
  {
    train::CheckpointRotator rot(dir, 4);
    ASSERT_TRUE(rot.save(model, 2, opt, &err)) << err;
  }
  for (int r = 0; r < 2; ++r) {
    train::CheckpointRotator rot(dir, 4, r, 2);
    opt.set_shard(r, 2);
    ASSERT_TRUE(rot.save(model, 4, opt, &err)) << err;
  }
  fs::remove(train::shard_path_for(dir, 4, 1, 2));
  fs::rename(train::shard_path_for(dir, 4, 0, 2),
             train::shard_path_for(dir, 4, 0, 1));
  ASSERT_EQ(train::shard_world_at(dir, 4), 1);

  nn::LlamaModel fresh(tiny(), 2);
  core::Apollo fresh_opt(core::ApolloConfig{});
  const auto rr = train::auto_resume(dir, fresh, &fresh_opt);
  EXPECT_TRUE(rr.resumed) << rr.error;
  EXPECT_EQ(rr.step, 2);
  ASSERT_EQ(rr.skipped.size(), 1u);
  EXPECT_EQ(rr.skipped[0],
            train::shard_path_for(dir, 4, 0, 1) + ": world mismatch: holds 2");
  obs::Registry::instance().reset();
  fs::remove_all(dir);
}

// Flora's and GaLore w. RP's records have one layout, so only the name in
// the shard header tells them apart. A set another optimizer wrote resumes
// the weights alone, as a single-process checkpoint does.
TEST(AutoResume, DdpSetOfAnotherOptimizerResumesTheWeightsOnly) {
  const std::string dir = fresh_dir("resume_shard_other_opt");
  const FixedBatches data(2);
  nn::LlamaModel model(tiny(), 1);
  auto flora = core::make_optimizer("flora");
  train_steps(model, *flora, data, 0, 2);
  std::string err;
  for (int r = 0; r < 2; ++r) {
    train::CheckpointRotator rot(dir, 4, r, 2);
    flora->set_shard(r, 2);
    ASSERT_TRUE(rot.save(model, 2, *flora, &err)) << err;
  }
  flora->set_shard(0, 1);
  ASSERT_EQ(train::shard_world_at(dir, 2), 2);

  nn::LlamaModel fresh(tiny(), 2);
  auto galore_rp = core::make_optimizer("galore-rp");
  const auto rr = train::auto_resume(dir, fresh, galore_rp.get());
  EXPECT_TRUE(rr.resumed) << rr.error;
  EXPECT_EQ(rr.step, 2);
  EXPECT_FALSE(rr.optimizer_state_restored);
  EXPECT_EQ(galore_rp->state_bytes(), 0);
  EXPECT_TRUE(fresh.parameters()[0]->value == model.parameters()[0]->value);

  auto same = core::make_optimizer("flora");
  nn::LlamaModel again(tiny(), 2);
  const auto rr2 = train::auto_resume(dir, again, same.get());
  EXPECT_TRUE(rr2.optimizer_state_restored);
  EXPECT_EQ(same->state_bytes(), flora->state_bytes());
  obs::Registry::instance().reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace apollo
