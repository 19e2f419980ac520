// Sampler tests: determinism, shape, and greedy-vs-stochastic behaviour of
// serve::generate, plus a trained-model likelihood check.
#include <gtest/gtest.h>

#include <cmath>

#include "data/corpus.h"
#include "nn/sampler.h"
#include "optim/adamw.h"
#include "serve/batcher.h"
#include "train/trainer.h"

namespace apollo {
namespace {

nn::LlamaConfig tiny() {
  nn::LlamaConfig c;
  c.vocab = 64;
  c.hidden = 16;
  c.intermediate = 40;
  c.n_heads = 2;
  c.n_layers = 1;
  c.seq_len = 16;
  return c;
}

serve::GenParams greedy(int n_tokens) {
  serve::GenParams gp;
  gp.max_tokens = n_tokens;
  gp.temperature = 0.f;
  return gp;
}

serve::GenParams sampled(int n_tokens, uint64_t seed) {
  serve::GenParams gp;
  gp.max_tokens = n_tokens;
  gp.temperature = 1.f;
  gp.seed = seed;
  return gp;
}

TEST(Sampler, ReturnsRequestedCount) {
  nn::LlamaModel model(tiny(), 1);
  auto out = serve::generate(model, {1, 2, 3}, sampled(10, 1234));
  ASSERT_EQ(out.size(), 10u);
  for (int32_t t : out) {
    EXPECT_GE(t, 0);
    EXPECT_LT(t, 64);
  }
}

TEST(Sampler, GreedyIsDeterministic) {
  nn::LlamaModel model(tiny(), 2);
  const serve::GenParams gp = greedy(8);
  EXPECT_EQ(serve::generate(model, {5}, gp), serve::generate(model, {5}, gp));
}

TEST(Sampler, SeededSamplingDeterministic) {
  nn::LlamaModel model(tiny(), 3);
  const auto a = serve::generate(model, {5}, sampled(8, 7));
  const auto b = serve::generate(model, {5}, sampled(8, 7));
  EXPECT_EQ(a, b);
  const auto c = serve::generate(model, {5}, sampled(8, 8));
  EXPECT_NE(a, c);
}

TEST(Sampler, TopKRestrictsSupport) {
  // With top_k = 1, sampling degenerates to greedy regardless of seed.
  nn::LlamaModel model(tiny(), 4);
  serve::GenParams k1 = sampled(6, 99);
  k1.temperature = 2.f;
  k1.top_k = 1;
  EXPECT_EQ(serve::generate(model, {3, 1}, greedy(6)),
            serve::generate(model, {3, 1}, k1));
}

TEST(Sampler, PromptsLongerThanWindowWork) {
  nn::LlamaModel model(tiny(), 5);
  std::vector<int32_t> prompt(50, 2);  // > seq_len 16
  auto out = serve::generate(model, prompt, sampled(4, 1234));
  EXPECT_EQ(out.size(), 4u);
}

TEST(Sampler, TrainedModelLikesItsCorpus) {
  // After training, the model's mean log-likelihood on corpus text must
  // beat the untrained model's by a clear margin.
  data::CorpusConfig ccfg;
  ccfg.vocab = 64;
  data::SyntheticCorpus corpus(ccfg);
  nn::LlamaModel model(tiny(), 6);

  Rng rng(1);
  std::vector<int32_t> sample;
  corpus.sample_sequence(rng, 64, sample);
  const double before = nn::sequence_log_likelihood(model, sample);

  optim::AdamW opt;
  train::TrainConfig tc;
  tc.steps = 120;
  tc.batch = 4;
  tc.lr = 3e-3f;
  train::Trainer t(model, opt, corpus, tc);
  t.run();
  const double after = nn::sequence_log_likelihood(model, sample);
  EXPECT_GT(after, before + 0.3);
}

TEST(Sampler, LikelihoodIsProperLogProb) {
  nn::LlamaModel model(tiny(), 7);
  std::vector<int32_t> tokens(20, 1);
  const double ll = nn::sequence_log_likelihood(model, tokens);
  EXPECT_LT(ll, 0.0);               // log-probabilities are negative
  EXPECT_GT(ll, -std::log(64.0) * 3);  // and not absurdly below uniform
}

TEST(Sampler, TopPOneKeepsFullDistribution) {
  nn::LlamaModel model(tiny(), 9);
  const serve::GenParams a = sampled(8, 5);
  serve::GenParams b = a;
  b.top_p = 1.f;  // explicit no-op
  EXPECT_EQ(serve::generate(model, {2}, a), serve::generate(model, {2}, b));
}

TEST(Sampler, TinyTopPIsGreedy) {
  // top_p → 0 keeps only the argmax token.
  nn::LlamaModel model(tiny(), 10);
  serve::GenParams p0 = sampled(6, 77);
  p0.temperature = 2.f;
  p0.top_p = 1e-6f;
  EXPECT_EQ(serve::generate(model, {4, 4}, greedy(6)),
            serve::generate(model, {4, 4}, p0));
}

}  // namespace
}  // namespace apollo
