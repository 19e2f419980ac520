// TextCorpus (byte-level real-text ingestion) and bf16 emulation tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "data/text_corpus.h"
#include "quant/bf16.h"
#include "tensor/ops.h"

namespace apollo {
namespace {

std::string sample_text() {
  std::string s;
  for (int i = 0; i < 400; ++i)
    s += "the quick brown fox jumps over the lazy dog. ";
  return s;
}

TEST(TextCorpus, FromStringAndSampling) {
  auto c = data::TextCorpus::from_string(sample_text());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->vocab_size(), 256);
  Rng rng(1);
  std::vector<int32_t> seq;
  c->sample_sequence(rng, 64, seq);
  ASSERT_EQ(seq.size(), 64u);
  for (int32_t t : seq) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 256);
  }
  // The sampled window is actual text: decode and check it contains a word.
  std::string decoded;
  for (int32_t t : seq) decoded += static_cast<char>(t);
  EXPECT_NE(decoded.find("o"), std::string::npos);
}

TEST(TextCorpus, RejectsTooShort) {
  std::string err;
  auto c = data::TextCorpus::from_string("tiny", &err);
  EXPECT_FALSE(c.has_value());
  EXPECT_FALSE(err.empty());
}

TEST(TextCorpus, MissingFileRejected) {
  std::string err;
  auto c = data::TextCorpus::from_file("/no/such/file.txt", &err);
  EXPECT_FALSE(c.has_value());
  EXPECT_EQ(err, "cannot open file");
}

TEST(TextCorpus, FromFileRoundTrip) {
  const std::string path = std::string(::testing::TempDir()) + "text.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  const std::string text = sample_text();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  auto c = data::TextCorpus::from_file(path);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->size_bytes(), text.size());
}

TEST(TextCorpus, HoldoutDisjointFromTrain) {
  // Train windows come from the first 95%, holdout from the last 5%; with
  // a marker planted only in the tail, train samples must never see it.
  std::string text = sample_text();
  const size_t tail_start = text.size() * 96 / 100;
  for (size_t i = tail_start; i < text.size(); ++i) text[i] = '#';
  auto c = data::TextCorpus::from_string(std::move(text));
  ASSERT_TRUE(c.has_value());
  Rng rng(2);
  std::vector<int32_t> seq;
  for (int trial = 0; trial < 200; ++trial) {
    c->sample_sequence(rng, 32, seq);
    for (int32_t t : seq) EXPECT_NE(t, static_cast<int32_t>('#'));
  }
  // And the holdout actually contains the marker.
  auto holdout = c->holdout();
  int marker = 0;
  for (int trial = 0; trial < 50; ++trial) {
    holdout.sample_sequence(rng, 32, seq);
    for (int32_t t : seq) marker += (t == static_cast<int32_t>('#'));
  }
  EXPECT_GT(marker, 0);
}

TEST(Bf16, RoundTripExactForRepresentable) {
  for (float x : {0.f, 1.f, -2.f, 0.5f, 256.f, -0.09375f})
    EXPECT_FLOAT_EQ(bf16_to_float(float_to_bf16(x)), x);
}

TEST(Bf16, RelativeErrorBounded) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const float x = static_cast<float>(rng.next_gaussian()) * 100.f;
    const float y = bf16_to_float(float_to_bf16(x));
    EXPECT_LE(std::fabs(y - x), std::fabs(x) * (1.f / 128.f) + 1e-30f);
  }
}

TEST(Bf16, RoundToNearestMeanError) {
  // Mean of round-tripped values tracks the mean of the inputs to within a
  // fraction of one bf16 code step (~0.008 at magnitude 1).
  Rng rng(4);
  double sx = 0, sy = 0;
  for (int i = 0; i < 20000; ++i) {
    const float x = 1.f + rng.next_float() * 0.01f;
    sx += x;
    sy += bf16_to_float(float_to_bf16(x));
  }
  EXPECT_NEAR(sy / sx, 1.0, 2e-3);
}

TEST(Bf16, NanSurvives) {
  const float nan = std::nanf("");
  EXPECT_TRUE(std::isnan(bf16_to_float(float_to_bf16(nan))));
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bf16_to_float(float_to_bf16(inf)), inf);
}

}  // namespace
}  // namespace apollo
