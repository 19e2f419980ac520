// Checkpoint serialization tests, including corruption/mismatch rejection.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/apollo.h"
#include "core/factory.h"
#include "fault/crc32.h"
#include "optim/adamw.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"
#include "tensor/simd/simd.h"
#include "train/checkpoint.h"
#include "train/resilience.h"

namespace apollo {
namespace {

nn::LlamaConfig tiny() {
  nn::LlamaConfig c;
  c.vocab = 32;
  c.hidden = 16;
  c.intermediate = 40;
  c.n_heads = 2;
  c.n_layers = 1;
  c.seq_len = 8;
  return c;
}

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

TEST(Checkpoint, SaveLoadRoundTrip) {
  const std::string path = temp_path("ckpt_roundtrip.bin");
  nn::LlamaModel a(tiny(), 1);
  auto r = train::save_checkpoint(path, a, 123);
  ASSERT_TRUE(r.ok) << r.error;

  nn::LlamaModel b(tiny(), 2);  // different init
  auto l = train::load_checkpoint(path, b);
  ASSERT_TRUE(l.ok) << l.error;
  EXPECT_EQ(l.step, 123);
  auto pa = a.parameters();
  auto pb = b.parameters();
  for (size_t i = 0; i < pa.size(); ++i)
    EXPECT_TRUE(pa[i]->value == pb[i]->value) << pa[i]->name;
}

TEST(Checkpoint, MissingFileFails) {
  nn::LlamaModel m(tiny(), 1);
  auto l = train::load_checkpoint(temp_path("does_not_exist.bin"), m);
  EXPECT_FALSE(l.ok);
  EXPECT_NE(l.error.find("cannot open"), std::string::npos);
}

TEST(Checkpoint, WrongArchitectureRejected) {
  const std::string path = temp_path("ckpt_arch.bin");
  nn::LlamaModel a(tiny(), 1);
  ASSERT_TRUE(train::save_checkpoint(path, a, 0).ok);

  nn::LlamaConfig other = tiny();
  other.hidden = 32;
  other.intermediate = 88;
  nn::LlamaModel b(other, 1);
  auto l = train::load_checkpoint(path, b);
  EXPECT_FALSE(l.ok);
}

TEST(Checkpoint, TruncatedFileRejected) {
  const std::string path = temp_path("ckpt_trunc.bin");
  nn::LlamaModel a(tiny(), 1);
  ASSERT_TRUE(train::save_checkpoint(path, a, 0).ok);
  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  nn::LlamaModel b(tiny(), 2);
  EXPECT_FALSE(train::load_checkpoint(path, b).ok);
}

TEST(Checkpoint, GarbageFileRejected) {
  const std::string path = temp_path("ckpt_garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not a checkpoint at all, not even close......", f);
  std::fclose(f);
  nn::LlamaModel m(tiny(), 1);
  auto l = train::load_checkpoint(path, m);
  EXPECT_FALSE(l.ok);
  EXPECT_NE(l.error.find("magic"), std::string::npos);
}

TEST(Checkpoint, ZeroByteFileGetsDistinctError) {
  // What a crashed non-atomic writer leaves behind right after O_TRUNC —
  // must be reported as empty, not as a magic/truncation failure.
  const std::string path = temp_path("ckpt_empty.bin");
  std::ofstream(path, std::ios::binary | std::ios::trunc).flush();
  nn::LlamaModel m(tiny(), 1);
  auto l = train::load_checkpoint(path, m);
  EXPECT_FALSE(l.ok);
  EXPECT_NE(l.error.find("empty checkpoint file"), std::string::npos)
      << l.error;
  EXPECT_EQ(l.error.find("magic"), std::string::npos) << l.error;
}

TEST(Checkpoint, SingleBitFlipDetectedByCrc) {
  const std::string path = temp_path("ckpt_bitflip.bin");
  nn::LlamaModel a(tiny(), 1);
  ASSERT_TRUE(train::save_checkpoint(path, a, 0).ok);
  // Flip one bit inside the first parameter's float data. The flipped value
  // is still a perfectly plausible float — only the section CRC can tell.
  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 100, SEEK_SET);
  const int c = std::fgetc(f);
  std::fseek(f, 100, SEEK_SET);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);
  nn::LlamaModel b(tiny(), 2);
  auto l = train::load_checkpoint(path, b);
  EXPECT_FALSE(l.ok);
  EXPECT_NE(l.error.find("CRC mismatch in parameter section"),
            std::string::npos)
      << l.error;
}

TEST(Checkpoint, SuccessfulSaveLeavesNoTempFile) {
  const std::string path = temp_path("ckpt_notmp.bin");
  nn::LlamaModel a(tiny(), 1);
  ASSERT_TRUE(train::save_checkpoint(path, a, 0).ok);
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  if (tmp != nullptr) std::fclose(tmp);
}

TEST(Checkpoint, UnwritablePathReportsRetryExhaustion) {
  nn::LlamaModel a(tiny(), 1);
  auto r = train::save_checkpoint(
      temp_path("no_such_dir/ckpt.bin"), a, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("after 3 attempts"), std::string::npos) << r.error;
}

// A shard is committed by the same code as the weights file, retries
// included.
TEST(Checkpoint, UnwritableShardPathReportsRetryExhaustion) {
  nn::LlamaModel a(tiny(), 1);
  core::Apollo opt(core::ApolloConfig{});
  std::string err;
  EXPECT_FALSE(train::save_state_shard(
      temp_path("no_such_dir/ckpt_4.shard0of2.aplo"), opt, a.parameters(), 4,
      0, 2, &err));
  EXPECT_NE(err.find("after 3 attempts"), std::string::npos) << err;
}

TEST(Checkpoint, LegacyV1FileIsRejected) {
  // Hand-crafted v1 layout (no CRCs, weights only). Only builds older than
  // format v3 wrote v1/v2 files, and their reader is gone: the file must be
  // refused by version, before any weight is touched.
  const std::string path = temp_path("ckpt_v1.bin");
  nn::LlamaModel a(tiny(), 1);
  auto params = a.parameters();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("APLO", 1, 4, f);
  const uint32_t version = 1;
  const int64_t step = 77;
  const uint32_t count = static_cast<uint32_t>(params.size());
  std::fwrite(&version, sizeof version, 1, f);
  std::fwrite(&step, sizeof step, 1, f);
  std::fwrite(&count, sizeof count, 1, f);
  for (const nn::Parameter* p : params) {
    const uint32_t name_len = static_cast<uint32_t>(p->name.size());
    const int64_t rows = p->value.rows(), cols = p->value.cols();
    std::fwrite(&name_len, sizeof name_len, 1, f);
    std::fwrite(p->name.data(), 1, name_len, f);
    std::fwrite(&rows, sizeof rows, 1, f);
    std::fwrite(&cols, sizeof cols, 1, f);
    std::fwrite(p->value.data(), sizeof(float),
                static_cast<size_t>(p->value.size()), f);
  }
  std::fclose(f);

  nn::LlamaModel b(tiny(), 2);
  nn::LlamaModel untouched(tiny(), 2);
  auto l = train::load_checkpoint(path, b);
  EXPECT_FALSE(l.ok);
  EXPECT_NE(l.error.find("unsupported checkpoint version 1"),
            std::string::npos)
      << l.error;
  for (size_t i = 0; i < params.size(); ++i)
    EXPECT_TRUE(b.parameters()[i]->value ==
                untouched.parameters()[i]->value)
        << params[i]->name;
}

// Fills 64 KiB of stack below the caller's frame with `pattern`, so a byte
// that a later call leaves unwritten reads back as that pattern.
[[gnu::noinline]] void dirty_stack(unsigned char pattern) {
  volatile unsigned char buf[64 * 1024];
  for (size_t i = 0; i < sizeof buf; ++i) buf[i] = pattern;
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// An APOLLO model with one optimizer step taken, so the checkpoint carries
// the seeder's Rng::State and per-slot projection state.
struct SteppedApollo {
  nn::LlamaModel model{tiny(), 3};
  core::Apollo opt{core::ApolloConfig{}};

  SteppedApollo() {
    Rng rng(5);
    const auto params = model.parameters();
    for (nn::Parameter* p : params) p->grad.fill_gaussian(rng, 0.f, 0.1f);
    opt.step(params);
  }
};

// Writes `opt`'s state to a new file at `path` right after filling the
// stack below this frame with `pattern`: any byte save_state leaves
// unwritten in its own frame reads back as that pattern.
[[gnu::noinline]] void save_state_on_dirty_stack(const core::Apollo& opt,
                                                 const nn::ParamList& params,
                                                 const std::string& path,
                                                 unsigned char pattern) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  dirty_stack(pattern);
  EXPECT_TRUE(opt.save_state(f, params));
  std::fclose(f);
}

TEST(Checkpoint, ApolloStateBytesDoNotDependOnStackContents) {
  // Rng::State has padding after its flag byte; writing the struct whole
  // would copy whatever the stack held there into the file and its CRC.
  SteppedApollo s;
  const auto params = s.model.parameters();
  const std::string a = temp_path("apollo_state_a.bin");
  const std::string b = temp_path("apollo_state_b.bin");
  save_state_on_dirty_stack(s.opt, params, a, 0x00);
  save_state_on_dirty_stack(s.opt, params, b, 0xA5);
  const std::vector<char> state_a = file_bytes(a), state_b = file_bytes(b);
  ASSERT_FALSE(state_a.empty());
  EXPECT_TRUE(state_a == state_b) << "optimizer state depends on the stack";

  // The same holds for whole checkpoints, section CRCs included.
  const std::string c = temp_path("ckpt_stack_a.bin");
  const std::string d = temp_path("ckpt_stack_b.bin");
  dirty_stack(0x00);
  ASSERT_TRUE(train::save_checkpoint(c, s.model, 1, &s.opt).ok);
  dirty_stack(0xA5);
  ASSERT_TRUE(train::save_checkpoint(d, s.model, 1, &s.opt).ok);
  EXPECT_TRUE(file_bytes(c) == file_bytes(d))
      << "checkpoint bytes depend on the stack";
}

TEST(Checkpoint, ApolloStateRejectsNonBooleanRngFlag) {
  // Layout: i64 step count, then Rng::State (32 bytes of s, the flag byte).
  SteppedApollo s;
  const auto params = s.model.parameters();
  std::vector<char> blob(1 << 20);
  std::FILE* w = fmemopen(blob.data(), blob.size(), "wb");
  ASSERT_NE(w, nullptr);
  ASSERT_TRUE(s.opt.save_state(w, params));
  const long len = std::ftell(w);
  std::fclose(w);
  ASSERT_GT(len, 41);

  core::Apollo good(core::ApolloConfig{});
  std::FILE* r = fmemopen(blob.data(), static_cast<size_t>(len), "rb");
  EXPECT_TRUE(good.load_state(r, params));
  std::fclose(r);

  blob[8 + 32] = 2;
  core::Apollo bad(core::ApolloConfig{});
  r = fmemopen(blob.data(), static_cast<size_t>(len), "rb");
  EXPECT_FALSE(bad.load_state(r, params));
  std::fclose(r);
}

// A shape whose payload runs past the end of the stream is refused before
// the matrix is resized, so a corrupt length field never sizes an
// allocation — and products that overflow int64 are refused too.
TEST(Serialize, ReadMatrixRefusesShapesPastTheEndOfTheStream) {
  const int64_t shapes[][2] = {{3, 5}, {int64_t{1} << 40, int64_t{1} << 30}};
  for (const auto& shape : shapes) {
    // One float short of rows x cols for the first shape.
    std::vector<char> bytes(sizeof(int64_t) * 2 + 14 * sizeof(float));
    std::memcpy(bytes.data(), shape, sizeof(int64_t) * 2);
    std::FILE* f = fmemopen(bytes.data(), bytes.size(), "rb");
    ASSERT_NE(f, nullptr);
    Matrix m(2, 2);
    EXPECT_FALSE(read_matrix(f, m));
    std::fclose(f);
    EXPECT_EQ(m.rows(), 2);
    EXPECT_EQ(m.cols(), 2);
  }
}

// --- crafted optimizer state -------------------------------------------------
// The section CRCs catch accidents only: anyone can write CRC-valid optimizer
// bytes. Restoring must check every matrix against the shape its slot would
// allocate and fail the load, instead of aborting in it or overflowing the
// heap at the next step.

// Writes a fixed optimizer blob under a chosen name, so save_checkpoint and
// save_state_shard seal crafted bytes exactly as they seal real state.
class BlobOptimizer : public optim::Optimizer {
 public:
  BlobOptimizer(std::string name, std::vector<char> blob)
      : name_(std::move(name)), blob_(std::move(blob)) {}
  void step_param(nn::Parameter& /*p*/, int /*slot*/) override {}
  std::string name() const override { return name_; }
  int64_t state_bytes() const override { return 0; }
  bool save_state(std::FILE* f,
                  const nn::ParamList& /*params*/) const override {
    return std::fwrite(blob_.data(), 1, blob_.size(), f) == blob_.size();
  }

 private:
  std::string name_;
  std::vector<char> blob_;
};

// Collects what the serialize.h writers emit.
class BlobBuilder {
 public:
  BlobBuilder() : f_(std::tmpfile()) {}
  ~BlobBuilder() { std::fclose(f_); }
  BlobBuilder(const BlobBuilder&) = delete;
  BlobBuilder& operator=(const BlobBuilder&) = delete;

  template <class T>
  BlobBuilder& pod(const T& v) {
    EXPECT_TRUE(write_pod(f_, v));
    return *this;
  }
  BlobBuilder& rng(const Rng::State& st) {
    EXPECT_TRUE(write_rng_state(f_, st));
    return *this;
  }
  // A rows×cols matrix; 0×0 writes the empty record.
  BlobBuilder& matrix(int64_t rows, int64_t cols) {
    EXPECT_TRUE(write_matrix(f_, rows == 0 ? Matrix() : Matrix(rows, cols)));
    return *this;
  }
  BlobBuilder& zeros(int64_t n) {
    EXPECT_TRUE(write_bytes(f_, std::vector<char>(static_cast<size_t>(n)).data(),
                            static_cast<size_t>(n)));
    return *this;
  }
  std::vector<char> bytes() {
    std::vector<char> out(static_cast<size_t>(std::ftell(f_)));
    std::rewind(f_);
    EXPECT_EQ(std::fread(out.data(), 1, out.size(), f_), out.size());
    return out;
  }

 private:
  std::FILE* f_;
};

struct Shape {
  int64_t rows, cols;
};

// AdamW state whose every slot holds moments of `shape`, or of its
// parameter's shape when `shape` is 0×0.
std::vector<char> adamw_blob(const nn::ParamList& params, Shape shape) {
  BlobBuilder b;
  b.pod(int64_t{1});
  for (const nn::Parameter* p : params) {
    const Shape s = shape.rows == 0 ? Shape{p->value.rows(), p->value.cols()}
                                    : shape;
    b.matrix(s.rows, s.cols).matrix(s.rows, s.cols);
  }
  return b.bytes();
}

// The first slot APOLLO, GaLore and the adapters project at rank 4.
size_t first_projected(const nn::ParamList& params) {
  for (size_t i = 0; i < params.size(); ++i)
    if (params[i]->matrix_shaped &&
        std::min(params[i]->value.rows(), params[i]->value.cols()) > 4)
      return i;
  ADD_FAILURE() << "no projected slot";
  return 0;
}

using RecordFn = std::function<void(BlobBuilder&, const nn::Parameter&)>;

// State after one step in which only the first projected slot has a record,
// `record`; every other slot writes `none` (the absent record). `rng` adds
// the header Rng, and `dense` the dense fallback's section of empty moments.
std::vector<char> one_slot_blob(const nn::ParamList& params, bool rng,
                                const RecordFn& record,
                                const std::function<void(BlobBuilder&)>& none,
                                bool dense) {
  const size_t slot = first_projected(params);
  BlobBuilder b;
  b.pod(int64_t{1});
  if (rng) b.rng(Rng(1).state());
  for (size_t i = 0; i < params.size(); ++i)
    i == slot ? record(b, *params[i]) : none(b);
  if (dense)
    for (size_t i = 0; i < params.size(); ++i) b.matrix(0, 0).matrix(0, 0);
  return b.bytes();
}

void absent(BlobBuilder& b) { b.pod(uint8_t{0}); }
void empty_moments(BlobBuilder& b) { b.matrix(0, 0).matrix(0, 0); }

// APOLLO or GaLore state whose record holds the given side byte, step
// count, projector and moment shapes.
std::vector<char> subspace_blob(const nn::ParamList& params, uint8_t side,
                                int64_t local_t, Shape proj, Shape m,
                                Shape v) {
  return one_slot_blob(
      params, true,
      [&](BlobBuilder& b, const nn::Parameter&) {
        b.pod(uint8_t{1}).pod(side).pod(uint64_t{7}).pod(local_t).pod(-1.0);
        b.matrix(proj.rows, proj.cols)
            .matrix(m.rows, m.cols)
            .matrix(v.rows, v.cols);
      },
      absent, true);
}

std::vector<char> apollo_blob(const nn::ParamList& params, uint8_t side,
                              Shape m, Shape v) {
  return subspace_blob(params, side, 1, {0, 0}, m, v);
}

// One low-precision moment: the rows×cols header, zero bf16 codes or zero
// int8 codes, and (int8) `blocks` zero scales.
void bf16_moment(BlobBuilder& b, Shape s) {
  b.pod(s.rows).pod(s.cols).zeros(2 * s.rows * s.cols);
}
void int8_moment(BlobBuilder& b, Shape s, int64_t blocks) {
  b.pod(s.rows).pod(s.cols).zeros(s.rows * s.cols).pod(blocks).zeros(4 * blocks);
}

// AdamW state at bf16 or int8 moments for the first projected slot, whose
// moments are `s` (int8: with `blocks` scales).
std::vector<char> low_precision_blob(const nn::ParamList& params, bool int8,
                                     Shape s, int64_t blocks) {
  return one_slot_blob(
      params, false,
      [&](BlobBuilder& b, const nn::Parameter&) {
        for (int k = 0; k < 2; ++k)
          int8 ? int8_moment(b, s, blocks) : bf16_moment(b, s);
      },
      empty_moments, false);
}

// Adam-mini state whose first projected slot holds M of `m`, V of `v`.
std::vector<char> adam_mini_blob(const nn::ParamList& params, Shape m,
                                 Shape v) {
  return one_slot_blob(
      params, false,
      [&](BlobBuilder& b, const nn::Parameter&) {
        b.pod(uint8_t{1}).matrix(m.rows, m.cols).matrix(v.rows, v.cols);
      },
      absent, false);
}

// LoRA state whose first adapted slot holds A of `a` (rank 4 fits).
std::vector<char> lora_blob(const nn::ParamList& params, Shape a) {
  return one_slot_blob(
      params, true,
      [&](BlobBuilder& b, const nn::Parameter& p) {
        const int64_t out = p.value.rows(), in = p.value.cols();
        b.pod(uint8_t{1}).pod(int64_t{1});
        b.matrix(out, in).matrix(a.rows, a.cols).matrix(out, 4).matrix(0, 0);
        for (int k = 0; k < 3; ++k) empty_moments(b);
      },
      absent, true);
}

// SGD-momentum state whose first projected slot holds a buffer of `s`.
std::vector<char> sgd_blob(const nn::ParamList& params, Shape s) {
  return one_slot_blob(
      params, false,
      [&](BlobBuilder& b, const nn::Parameter&) {
        b.pod(uint8_t{1}).matrix(s.rows, s.cols);
      },
      absent, false);
}

// The r×n moments a left-projected slot holds at rank 4.
Shape left_moments(const nn::ParamList& params) {
  return {4, params[first_projected(params)]->value.cols()};
}

TEST(CraftedState, WrongShapedMomentsFailTheLoadCleanly) {
  nn::LlamaModel model(tiny(), 1);
  const nn::ParamList params = model.parameters();
  const Shape fit = left_moments(params);
  const nn::Parameter& w = *params[first_projected(params)];
  const Shape shape{w.value.rows(), w.value.cols()};
  const Shape proj{4, w.value.rows()};  // a left SVD projector
  const int64_t blocks = (shape.rows * shape.cols + 127) / 128;
  struct Case {
    const char* label;
    const char* optimizer;  // factory name
    std::vector<char> blob;
    bool loads;
  };
  const Case cases[] = {
      {"AdamW, parameter-shaped moments", "adamw", adamw_blob(params, {0, 0}),
       true},
      {"AdamW, 1x1 moments", "adamw", adamw_blob(params, {1, 1}), false},
      {"APOLLO, r x n moments", "apollo", apollo_blob(params, 0, fit, fit),
       true},
      {"APOLLO, M 1x1 and V 2x2", "apollo",
       apollo_blob(params, 0, {1, 1}, {2, 2}), false},
      {"APOLLO, M and V 1x1", "apollo",
       apollo_blob(params, 0, {1, 1}, {1, 1}), false},
      {"APOLLO, side byte 2", "apollo", apollo_blob(params, 2, fit, fit),
       false},
      // GoLore switches to random projections after step 200.
      {"GoLore, SVD projector at step 200", "golore",
       subspace_blob(params, 0, 200, proj, fit, fit), true},
      {"GoLore, SVD projector at step 201", "golore",
       subspace_blob(params, 0, 201, proj, fit, fit), false},
      {"GoLore, no projector at step 200", "golore",
       subspace_blob(params, 0, 200, {0, 0}, fit, fit), false},
      {"8-bit Adam, one scale per block", "adam8bit",
       low_precision_blob(params, true, shape, blocks), true},
      {"8-bit Adam, one block short", "adam8bit",
       low_precision_blob(params, true, shape, blocks - 1), false},
      {"bf16 AdamW, parameter-shaped codes", "adamw-bf16",
       low_precision_blob(params, false, shape, 0), true},
      {"bf16 AdamW, one code too many per row", "adamw-bf16",
       low_precision_blob(params, false, {shape.rows, shape.cols + 1}, 0),
       false},
      {"Adam-mini, one V per row", "adam-mini",
       adam_mini_blob(params, shape, {shape.rows, 1}), true},
      {"Adam-mini, one V too many", "adam-mini",
       adam_mini_blob(params, shape, {shape.rows + 1, 1}), false},
      {"LoRA, r x in A", "lora", lora_blob(params, {4, shape.cols}), true},
      {"LoRA, (r+1) x in A", "lora", lora_blob(params, {5, shape.cols}),
       false},
      {"SGD-momentum, parameter-shaped buffer", "sgd-momentum",
       sgd_blob(params, shape), true},
      {"SGD-momentum, 1x1 buffer", "sgd-momentum", sgd_blob(params, {1, 1}),
       false},
  };
  const std::string path = temp_path("crafted_state.aplo");
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    std::unique_ptr<optim::Optimizer> opt = core::make_optimizer(c.optimizer);
    BlobOptimizer stub(opt->name(), c.blob);
    ASSERT_TRUE(train::save_checkpoint(path, model, 1, &stub).ok);
    nn::LlamaModel fresh(tiny(), 2);
    const auto l = train::load_checkpoint(path, fresh, opt.get());
    EXPECT_EQ(l.ok, c.loads) << l.error;
    if (!c.loads) {
      EXPECT_EQ(l.error,
                "failed to restore optimizer state (" + opt->name() + ")");
      continue;
    }
    // A state that loads must also step.
    const nn::ParamList fp = fresh.parameters();
    for (nn::Parameter* p : fp) p->grad.fill(0.01f);
    opt->step(fp);
  }
}

TEST(CraftedState, WrongShapedShardEndsTheDdpScan) {
  const std::string dir = temp_path("crafted_shards");
  nn::LlamaModel model(tiny(), 1);
  const nn::ParamList params = model.parameters();
  const Shape fit = left_moments(params);
  for (const bool well_formed : {true, false}) {
    SCOPED_TRACE(well_formed ? "r x n moments" : "1x1 moments");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const Shape m = well_formed ? fit : Shape{1, 1};
    BlobOptimizer stub("APOLLO", apollo_blob(params, 0, m, m));
    ASSERT_TRUE(train::save_checkpoint(train::CheckpointRotator::path_for(
                                           dir, 4),
                                       model, 4)
                    .ok);
    std::string err;
    ASSERT_TRUE(train::save_state_shard(train::shard_path_for(dir, 4, 0, 1),
                                        stub, params, 4, 0, 1, &err))
        << err;
    nn::LlamaModel fresh(tiny(), 2);
    core::Apollo opt{core::ApolloConfig{}};
    const auto rr = train::auto_resume(dir, fresh, &opt);
    EXPECT_EQ(rr.resumed, well_formed) << rr.error;
    if (!well_formed) {
      EXPECT_EQ(rr.error,
                "optimizer shard merge failed at step 4 in " + dir);
    }
  }
  std::filesystem::remove_all(dir);
}

// --- format fingerprints -----------------------------------------------------
// CRC-32 of three whole files — a v3 checkpoint with optimizer state, a
// weights-only one, and a shard file — so any drift in either on-disk
// format fails here even when a save/load round trip still succeeds. The
// inputs are exactly representable — hand-set weights, and AdamW after one
// lr-0 step on power-of-two gradients, whose moments are exact products —
// so the bytes are the same at every ISA and SIMD level.

uint32_t file_crc(const std::string& path) {
  const std::vector<char> bytes = file_bytes(path);
  EXPECT_FALSE(bytes.empty()) << path;
  return fault::crc32(bytes.data(), bytes.size());
}

struct PinnedAdamW {
  nn::LlamaModel model{tiny(), 1};
  optim::AdamW opt;

  PinnedAdamW() {
    const auto params = model.parameters();
    int k = 0;
    for (nn::Parameter* p : params) {
      for (int64_t i = 0; i < p->value.size(); ++i, ++k) {
        p->value[i] = static_cast<float>(k % 29 - 14) * 0.125f;
        p->grad[i] = static_cast<float>(1 << (k % 4)) *
                     ((k & 1) != 0 ? -0.25f : 0.25f);
      }
    }
    opt.set_lr(0.f);
    opt.step(params);
  }
};

TEST(FormatFingerprint, CheckpointAndShardBytesAreUnchanged) {
  PinnedAdamW s;
  const std::string with_state = temp_path("pinned_state.aplo");
  const std::string weights_only = temp_path("pinned_weights.aplo");
  const std::string shard = temp_path("pinned.shard0of2.aplo");
  ASSERT_TRUE(train::save_checkpoint(with_state, s.model, 5, &s.opt).ok);
  ASSERT_TRUE(train::save_checkpoint(weights_only, s.model, 5).ok);
  std::string err;
  ASSERT_TRUE(train::save_state_shard(shard, s.opt, s.model.parameters(), 5,
                                      0, 2, &err))
      << err;
  EXPECT_EQ(file_crc(with_state), 0x6706653fu);
  EXPECT_EQ(file_crc(weights_only), 0xcf51c8e0u);
  EXPECT_EQ(file_crc(shard), 0x71b72b67u);
}

// CRC-32 of the state APOLLO, APOLLO w. SVD and APOLLO-Mini save after three
// steps on the tiny model (rank 4, refresh every 2 steps, so the third step
// re-seeds or re-runs the SVD). The projections run through the GEMM
// kernels, so the bits are pinned per vector level, and the plain C++ loops
// around them contract into fma only where the build targets a CPU with
// fma, so each level has a value for either kind of build (the portable
// APOLLO_NATIVE=OFF build has no fma). The values were recorded before
// every optimizer's state went through one codec.
uint32_t apollo_state_crc(const std::string& name) {
  core::FactoryOptions fo;
  fo.rank = 4;
  fo.update_freq = 2;
  auto opt = core::make_optimizer(name, fo);
  nn::LlamaModel model(tiny(), 1);
  const nn::ParamList params = model.parameters();
  opt->set_lr(1e-2f);
  for (uint64_t step = 0; step < 3; ++step) {
    Rng rng(50 + step);
    for (nn::Parameter* p : params) p->grad.fill_gaussian(rng, 0.f, 0.1f);
    opt->step(params);
  }
  const std::string path = temp_path("apollo_state_crc.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  EXPECT_TRUE(opt->save_state(f, params));
  std::fclose(f);
  return file_crc(path);
}

TEST(FormatFingerprint, ApolloStateBytesAreUnchanged) {
#ifdef __FMA__
  constexpr bool kFmaBuild = true;
#else
  constexpr bool kFmaBuild = false;
#endif
  struct Golden {
    simd::Level level;
    const char* optimizer;
    uint32_t fma_build, plain_build;
  };
  const Golden golden[] = {
      {simd::Level::kAvx2, "apollo", 0xbe78d3deu, 0x428efc40u},
      {simd::Level::kAvx2, "apollo-svd", 0x8f9fbdc8u, 0x143634b6u},
      {simd::Level::kAvx2, "apollo-mini", 0x15fe8ffbu, 0xd41d6f90u},
      {simd::Level::kAvx512, "apollo", 0x41069312u, 0x9481d019u},
      {simd::Level::kAvx512, "apollo-svd", 0xeb1e7448u, 0xf12b5bccu},
      {simd::Level::kAvx512, "apollo-mini", 0x8069090fu, 0x418ae964u},
  };
  for (const Golden& g : golden) {
    if (g.level > simd::max_supported_level()) continue;
    SCOPED_TRACE(std::string(simd::level_name(g.level)) + " " + g.optimizer);
    ASSERT_TRUE(simd::set_level(g.level));
    EXPECT_EQ(apollo_state_crc(g.optimizer),
              kFmaBuild ? g.fma_build : g.plain_build);
    simd::clear_level_override();
  }
}

}  // namespace
}  // namespace apollo
