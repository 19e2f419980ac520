// Observability layer: registry determinism across thread counts, histogram
// bucket schema, chrome-trace well-formedness, and the telemetry-off
// zero-impact contract (no file, bit-identical training).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/apollo.h"
#include "core/threadpool.h"
#include "data/corpus.h"
#include "nn/llama.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "train/trainer.h"

namespace apollo {
namespace {

// --- minimal JSON validator -------------------------------------------------
// Recursive-descent syntax check — enough to guarantee the artifacts load in
// any real JSON parser (CI additionally runs them through python3).

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    for (; *lit != '\0'; ++lit, ++pos_)
      if (pos_ >= s_.size() || s_[pos_] != *lit) return false;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }

  const std::string& s_;
  size_t pos_ = 0;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

// --- histogram schema -------------------------------------------------------

TEST(Histogram, BucketEdgesAreTheDocumentedSchema) {
  // Exact endpoints and count: 62 buckets, edges 1e-9 … 1e6, 4 per decade.
  EXPECT_EQ(obs::Histogram::kBuckets, 62);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_upper(0), 1e-9);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_upper(obs::Histogram::kBuckets - 2),
                   1e6);
  // Monotone, log-spaced: each full decade spans exactly 4 buckets.
  for (int i = 1; i <= obs::Histogram::kBuckets - 2; ++i)
    EXPECT_GT(obs::Histogram::bucket_upper(i),
              obs::Histogram::bucket_upper(i - 1));
  for (int i = 0; i + 4 <= obs::Histogram::kBuckets - 2; i += 4)
    EXPECT_NEAR(obs::Histogram::bucket_upper(i + 4) /
                    obs::Histogram::bucket_upper(i),
                10.0, 1e-9);
}

TEST(Histogram, BucketIndexClassification) {
  using H = obs::Histogram;
  // Underflow bucket: zero, negatives, NaN, and anything ≤ the min edge.
  EXPECT_EQ(H::bucket_index(0.0), 0);
  EXPECT_EQ(H::bucket_index(-3.5), 0);
  EXPECT_EQ(H::bucket_index(std::nan("")), 0);
  EXPECT_EQ(H::bucket_index(1e-9), 0);
  // Overflow bucket: strictly above the max edge.
  EXPECT_EQ(H::bucket_index(1e6 + 1), H::kBuckets - 1);
  EXPECT_EQ(H::bucket_index(1e300), H::kBuckets - 1);
  // Upper edges are inclusive: an exact edge lands in its own bucket, a
  // nudge above lands in the next.
  for (int i = 1; i <= H::kBuckets - 2; ++i) {
    const double edge = H::bucket_upper(i);
    EXPECT_EQ(H::bucket_index(edge), i) << "edge " << edge;
    if (i < H::kBuckets - 2) {
      EXPECT_EQ(H::bucket_index(edge * 1.0001), i + 1) << "edge " << edge;
    }
  }
  // Interior values.
  EXPECT_EQ(H::bucket_index(1.0), H::bucket_index(1.0));
  EXPECT_EQ(H::bucket_index(0.5), H::bucket_index(0.5));
}

TEST(Histogram, SnapshotAggregates) {
  obs::Histogram h;
  h.observe(1.0);
  h.observe(2.0);
  h.observe(4.0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 3);
  EXPECT_DOUBLE_EQ(s.sum, 7.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  int64_t total = 0;
  for (int64_t b : s.buckets) total += b;
  EXPECT_EQ(total, 3);
  h.reset();
  EXPECT_EQ(h.snapshot().count, 0);
}

// --- registry determinism across thread counts ------------------------------

// Drive counters and an integer-valued histogram from inside the thread
// pool, then compare the exported snapshot for 1 vs. 4 threads. Integer
// merges are order-independent, so the export must be byte-identical.
std::string run_instrumented_workload(int threads) {
  core::set_thread_count(threads);
  obs::Registry& reg = obs::Registry::instance();
  reg.reset();
  obs::Counter& items = reg.counter("test.items");
  obs::Counter& evens = reg.counter("test.evens");
  obs::Histogram& sizes = reg.histogram("test.sizes");
  reg.gauge("test.last_n").set(4096.0);
  // Only per-index quantities here: the lane partition (and so the number
  // of callback invocations) legitimately varies with the thread count,
  // but the multiset of indices — and therefore every merged total — does
  // not.
  core::parallel_for(
      4096,
      [&](int64_t i0, int64_t i1) {
        items.add(i1 - i0);
        for (int64_t i = i0; i < i1; ++i) {
          if (i % 2 == 0) evens.add(1);
          // Integer-valued observations: double sums stay exact for any
          // thread count (see metrics.h header contract).
          sizes.observe(static_cast<double>(i % 97));
        }
      },
      /*grain=*/64);
  core::set_thread_count(0);
  return reg.export_jsonl();
}

TEST(Registry, ExportDeterministicAcrossThreadCounts) {
  const std::string one = run_instrumented_workload(1);
  const std::string four = run_instrumented_workload(4);
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"metric\":\"test.items\""), std::string::npos);
  EXPECT_NE(one.find("\"value\":4096"), std::string::npos);
  // Every exported line is valid JSON.
  std::istringstream lines(one);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    JsonValidator v(line);
    EXPECT_TRUE(v.valid()) << line;
    ++n;
  }
  EXPECT_GE(n, 4);  // two counters, one gauge, one histogram
  obs::Registry::instance().reset();
}

// Pool threads race on one histogram. The observations exclude 0, so a min
// left at an unset 0.0, or a max one writer overwrote with a smaller value,
// shows up here.
TEST(Registry, ConcurrentHistogramKeepsExactMinAndMax) {
  obs::Registry& reg = obs::Registry::instance();
  reg.reset();
  obs::Histogram& h = reg.histogram("test.concurrent");
  core::set_thread_count(4);
  core::parallel_for(
      4096,
      [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
          h.observe(static_cast<double>(i + 1));
      },
      /*grain=*/16);
  core::set_thread_count(0);
  const obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4096);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 4096.0);
  EXPECT_EQ(s.sum, 4096.0 * 4097.0 / 2.0);
  reg.reset();
}

TEST(Registry, ReferencesAreStableAcrossReset) {
  obs::Counter& c = obs::Registry::instance().counter("test.stable");
  c.add(7);
  EXPECT_EQ(c.value(), 7);
  obs::Registry::instance().reset();
  EXPECT_EQ(c.value(), 0);  // zeroed in place, reference still valid
  c.add(1);
  EXPECT_EQ(obs::Registry::instance().counter("test.stable").value(), 1);
  obs::Registry::instance().reset();
}

// --- chrome trace -----------------------------------------------------------

TEST(Trace, EmitsParseableWellNestedJson) {
  const std::string path = std::string(::testing::TempDir()) + "trace.json";
  std::remove(path.c_str());
  obs::trace_set_path(path.c_str());
  ASSERT_TRUE(obs::trace_enabled());
  {
    APOLLO_TRACE_SCOPE("outer", "test");
    {
      APOLLO_TRACE_SCOPE("inner", "test");
      obs::trace_instant("tick", "test");
    }
    APOLLO_TRACE_SCOPE("sibling", "test");
  }
  obs::trace_flush();
  obs::trace_set_path("");  // disable before other tests run

  const std::string text = read_file(path);
  ASSERT_FALSE(text.empty());
  JsonValidator v(text);
  EXPECT_TRUE(v.valid());

  // One event per line by construction: check B/E balance and LIFO nesting.
  std::istringstream lines(text);
  std::string line;
  std::vector<std::string> stack;
  int begins = 0, ends = 0, instants = 0;
  auto field = [](const std::string& l, const std::string& key) {
    const size_t k = l.find("\"" + key + "\":\"");
    if (k == std::string::npos) return std::string();
    const size_t start = k + key.size() + 4;
    return l.substr(start, l.find('"', start) - start);
  };
  while (std::getline(lines, line)) {
    const std::string ph = field(line, "ph");
    if (ph == "B") {
      ++begins;
      stack.push_back(field(line, "name"));
    } else if (ph == "E") {
      ++ends;
      ASSERT_FALSE(stack.empty());
      EXPECT_EQ(stack.back(), field(line, "name"));
      stack.pop_back();
    } else if (ph == "i") {
      ++instants;
    }
  }
  EXPECT_EQ(begins, 3);
  EXPECT_EQ(ends, 3);
  EXPECT_EQ(instants, 1);
  EXPECT_TRUE(stack.empty());
  std::remove(path.c_str());
}

TEST(Trace, DisabledScopesRecordNothing) {
  obs::trace_set_path("");
  EXPECT_FALSE(obs::trace_enabled());
  { APOLLO_TRACE_SCOPE("ghost", "test"); }
  obs::trace_instant("ghost", "test");  // all no-ops — nothing to assert
}

// --- telemetry: off means off ----------------------------------------------

train::TrainResult tiny_train() {
  nn::LlamaConfig cfg;
  cfg.vocab = 64; cfg.hidden = 16; cfg.intermediate = 40;
  cfg.n_heads = 2; cfg.n_layers = 2; cfg.seq_len = 16;
  nn::LlamaModel model(cfg, 3);
  data::CorpusConfig ccfg;
  ccfg.vocab = 64;
  data::SyntheticCorpus corpus(ccfg);
  core::ApolloConfig acfg;
  acfg.rank = 2;
  acfg.update_freq = 3;
  core::Apollo opt(acfg);
  train::TrainConfig tc;
  tc.steps = 6;
  tc.batch = 2;
  tc.lr = 0.01f;
  tc.record_step_losses = true;
  train::Trainer t(model, opt, corpus, tc);
  return t.run();
}

TEST(Telemetry, OffProducesNoFileAndOnIsBitIdentical) {
  const std::string path =
      std::string(::testing::TempDir()) + "metrics.jsonl";
  std::remove(path.c_str());

  obs::telemetry_set_path("");  // off
  ASSERT_FALSE(obs::telemetry_enabled());
  const auto off = tiny_train();
  EXPECT_FALSE(file_exists(path));

  obs::telemetry_set_path(path.c_str());  // on
  ASSERT_TRUE(obs::telemetry_enabled());
  const auto on = tiny_train();
  obs::telemetry_set_path("");  // finalizes + closes the file

  // Observation is pure: the training trajectory is bit-identical.
  ASSERT_EQ(off.step_losses.size(), on.step_losses.size());
  EXPECT_EQ(off.step_losses, on.step_losses);
  EXPECT_EQ(off.final_perplexity, on.final_perplexity);

  // The file exists, has one valid JSON line per step (plus the registry
  // tail), and carries the telemetry schema's core fields.
  ASSERT_TRUE(file_exists(path));
  std::istringstream lines(read_file(path));
  std::string line;
  int step_lines = 0, metric_lines = 0;
  while (std::getline(lines, line)) {
    JsonValidator v(line);
    EXPECT_TRUE(v.valid()) << line;
    if (line.find("\"step\":") != std::string::npos) ++step_lines;
    if (line.find("\"metric\":") != std::string::npos) ++metric_lines;
  }
  EXPECT_EQ(step_lines, 6);
  EXPECT_GE(metric_lines, 1);  // registry dump appended at finalize
  const std::string text = read_file(path);
  EXPECT_NE(text.find("\"loss\":"), std::string::npos);
  EXPECT_NE(text.find("\"grad_norm\":"), std::string::npos);
  EXPECT_NE(text.find("\"opt.clip_fraction\":"), std::string::npos);
  EXPECT_NE(text.find("\"opt.s_med\":"), std::string::npos);
  std::remove(path.c_str());
  obs::Registry::instance().reset();
}

// --- recovery counters: silent when nothing goes wrong ----------------------

TEST(Registry, RecoveryCountersStayZeroOnFaultFreeRun) {
  const std::string dir =
      std::string(::testing::TempDir()) + "obs_resilient_ckpts";
  std::filesystem::remove_all(dir);
  obs::Registry::instance().reset();
  obs::Registry& reg = obs::Registry::instance();
  // Touch the counters first so the assertion can't pass vacuously.
  obs::Counter& injected = reg.counter("fault.injected");
  obs::Counter& rollbacks = reg.counter("watchdog.rollbacks");
  obs::Counter& skipped = reg.counter("ckpt.corrupt_skipped");

  nn::LlamaConfig cfg;
  cfg.vocab = 64; cfg.hidden = 16; cfg.intermediate = 40;
  cfg.n_heads = 2; cfg.n_layers = 1; cfg.seq_len = 8;
  nn::LlamaModel model(cfg, 3);
  data::CorpusConfig ccfg;
  ccfg.vocab = 64;
  data::SyntheticCorpus corpus(ccfg);
  core::ApolloConfig acfg;
  acfg.rank = 2;
  acfg.update_freq = 3;
  core::Apollo opt(acfg);
  train::TrainConfig tc;
  tc.steps = 8;
  tc.batch = 2;
  tc.lr = 0.01f;
  tc.resilience.ckpt_dir = dir;
  tc.resilience.ckpt_every = 4;
  tc.resilience.watchdog = true;
  train::Trainer t(model, opt, corpus, tc);
  const auto res = t.run();

  EXPECT_FALSE(res.diverged) << res.divergence_diagnostics;
  EXPECT_EQ(res.rollbacks, 0);
  EXPECT_EQ(res.corrupt_checkpoints_skipped, 0);
  EXPECT_GE(res.checkpoints_saved, 2);
  EXPECT_EQ(injected.value(), 0);
  EXPECT_EQ(rollbacks.value(), 0);
  EXPECT_EQ(skipped.value(), 0);
  obs::Registry::instance().reset();
  std::filesystem::remove_all(dir);
}

TEST(Telemetry, ContributionsAreDroppedWhenOff) {
  obs::telemetry_set_path("");
  ASSERT_FALSE(obs::telemetry_enabled());
  // All no-ops; nothing may crash or allocate a file.
  obs::telemetry().set("x", 1.0);
  obs::telemetry().set_int("y", 2);
  obs::telemetry().count("z");
  obs::telemetry().sample("s", 3.0);
  obs::telemetry().commit(1);
}

}  // namespace
}  // namespace apollo
