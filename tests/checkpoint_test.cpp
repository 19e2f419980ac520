// Checkpoint serialization tests, including corruption/mismatch rejection.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <vector>

#include "core/apollo.h"
#include "fault/crc32.h"
#include "optim/adamw.h"
#include "tensor/rng.h"
#include "tensor/serialize.h"
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

}  // namespace
}  // namespace apollo
