// Distributed data-parallel suite: rank-scoped fault specs, the World
// supervisor's collectives (bit for bit against rank-ordered sums) and
// restart machinery, ZeRO-1 sharded-update equivalence, shard-checkpoint
// round-trips across width changes, and the end-to-end contracts — a 4-rank
// world, classic or fused, must reproduce the single-process
// `--grad-accum 4` loss/grad-norm streams bit for bit, a world that loses a
// rank (crash or hang) must auto-recover onto the same trajectory, and an
// out-of-range --ranks or a malformed number is refused with one usage
// error.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/apollo.h"
#include "core/factory.h"
#include "dist/world.h"
#include "fault/fault_injection.h"
#include "nn/llama.h"
#include "tensor/matrix.h"
#include "train/resilience.h"

namespace apollo {
namespace {

// --- rank-scoped fault specs ------------------------------------------------

TEST(FaultSpec, ParsesRankScope) {
  fault::Plan plan;
  std::string err;
  ASSERT_TRUE(fault::parse_spec("crash@120:2;hang@5:0;nan_grad@9", &plan,
                                &err))
      << err;
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, fault::Kind::kCrash);
  EXPECT_EQ(plan.events[0].step, 120);
  EXPECT_EQ(plan.events[0].rank, 2);
  EXPECT_EQ(plan.events[1].kind, fault::Kind::kHang);
  EXPECT_EQ(plan.events[1].rank, 0);
  EXPECT_EQ(plan.events[2].rank, -1);  // unscoped: fires in any process
}

TEST(FaultSpec, RejectsMalformedRankScope) {
  fault::Plan plan;
  std::string err;
  EXPECT_FALSE(fault::parse_spec("crash@5:", &plan, &err));
  EXPECT_FALSE(fault::parse_spec("crash@5:-1", &plan, &err));
  EXPECT_FALSE(fault::parse_spec("crash@5:two", &plan, &err));
  EXPECT_FALSE(fault::parse_spec("crash@5:99999", &plan, &err));
}

TEST(FaultInjector, RankScopedEventsFireOnlyAtThatRank) {
  fault::set_spec("crash@3:1");
  // No declared rank (-1): a rank-scoped event must never fire.
  EXPECT_FALSE(fault::take_at(fault::Kind::kCrash, 3));
  fault::set_rank(2);
  EXPECT_FALSE(fault::take_at(fault::Kind::kCrash, 3));
  fault::set_rank(1);
  EXPECT_TRUE(fault::take_at(fault::Kind::kCrash, 3));
  fault::set_rank(-1);
  fault::set_spec("");
}

// --- in-process worlds ------------------------------------------------------
// Worker bodies run in forked children, so they use plain checks and exit
// codes instead of gtest macros (a child's assertion would be invisible);
// the parent asserts on World::run's aggregate exit code.

// Collective correctness over shared memory, spanning multiple buckets
// (kBucketFloats + remainder) plus the scalar loss path. Values are exactly
// representable so the expected sums are order-independent and exact.
TEST(DistWorld, CollectivesAreCorrectOnSharedMemory) {
  dist::WorldConfig cfg;
  cfg.ranks = 4;
  cfg.timeout_ms = 20000;
  dist::World world(cfg);
  const int code = world.run([](dist::Communicator& comm) -> int {
    const int w = comm.world();
    const int64_t n = dist::kBucketFloats + 1234;
    std::vector<float> v(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i)
      v[static_cast<size_t>(i)] = static_cast<float>(comm.rank() + 1) *
                                  (0.25f + static_cast<float>(i % 7));
    comm.allreduce_sum(v.data(), n);
    const float ranks_sum = static_cast<float>(w * (w + 1) / 2);
    for (int64_t i = 0; i < n; ++i)
      if (v[static_cast<size_t>(i)] !=
          ranks_sum * (0.25f + static_cast<float>(i % 7)))
        return 3;

    float scalar = static_cast<float>(comm.rank() + 1);
    comm.allreduce_sum(&scalar, 1);
    if (scalar != ranks_sum) return 4;

    const int root = w - 1;
    std::vector<float> b(64, comm.rank() == root ? 0.f : -1.f);
    if (comm.rank() == root)
      for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(i % 13);
    comm.broadcast(b.data(), static_cast<int64_t>(b.size()), root);
    for (size_t i = 0; i < b.size(); ++i)
      if (b[i] != static_cast<float>(i % 13)) return 5;
    comm.barrier();
    return 0;
  });
  EXPECT_EQ(code, 0);
}

// Test data for the bucketed collectives: a float with a random 24-bit
// mantissa and one of 16 exponents, so sums round and the order of the
// additions shows in the bits.
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

float test_value(uint64_t tag, int rank, size_t seg, int64_t i) {
  const uint64_t h =
      mix64(mix64(mix64(tag * 131 + static_cast<uint64_t>(rank)) + seg) +
            static_cast<uint64_t>(i));
  const float mant = static_cast<float>(h >> 40) / 16777216.f - 0.5f;
  return std::ldexp(mant, static_cast<int>(h & 15) - 8);
}

uint32_t bits_of(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof u);
  return u;
}

struct SegSpec {
  int64_t n;
  int owner;
};

// Round k's segment list, the same on every rank. Round 0 lists the edge
// cases; later rounds draw 1-9 segments of mixed lengths and owners.
std::vector<SegSpec> round_specs(uint64_t k) {
  constexpr int64_t B = dist::kBucketFloats;
  constexpr int kAll = dist::kEveryRank;
  if (k == 0)
    return {{0, 0},  {1, 1},      {7, 2},  {B + 5, kAll}, {B - 3, 0},
            {0, kAll}, {1, kAll}, {2 * B + 11, 2}, {13, 1}, {3 * B + 1, 1}};
  const int64_t lens[] = {0, 1, 3, 17, 1001, B - 1, B, B + 1, 2 * B + 3};
  std::vector<SegSpec> v;
  uint64_t h = mix64(k);
  const int count = 1 + static_cast<int>(h % 9);
  for (int s = 0; s < count; ++s) {
    h = mix64(h);
    v.push_back({lens[h % 9], static_cast<int>((h >> 8) % 4) - 1});
  }
  return v;
}

// Runs collective `which` (0 reduce-scatter, 1 all-gather, 2 all-reduce,
// 3 broadcast) on round k's segments and checks every float's bits.
bool collective_is_exact(dist::Communicator& comm, uint64_t k, int which) {
  const int w = comm.world();
  const int me = comm.rank();
  const uint64_t tag = 4 * k + static_cast<uint64_t>(which);
  std::vector<SegSpec> specs = round_specs(k);
  if (which == 2) specs = {{specs.back().n + static_cast<int64_t>(k),
                            dist::kEveryRank}};
  if (which == 3) specs = {{specs.front().n + 2 * static_cast<int64_t>(k),
                            static_cast<int>(k % static_cast<uint64_t>(w))}};
  std::vector<std::vector<float>> data(specs.size());
  std::vector<dist::Segment> segs;
  for (size_t s = 0; s < specs.size(); ++s) {
    data[s].resize(static_cast<size_t>(specs[s].n));
    for (int64_t i = 0; i < specs[s].n; ++i)
      data[s][static_cast<size_t>(i)] = test_value(tag, me, s, i);
    segs.push_back({data[s].data(), specs[s].n, specs[s].owner});
  }
  if (which == 0) comm.reduce_scatter_sum(segs);
  if (which == 1) comm.all_gather(segs);
  if (which == 2) comm.allreduce_sum(segs[0].data, segs[0].n);
  if (which == 3) comm.broadcast(segs[0].data, segs[0].n, segs[0].owner);
  const bool sums = which == 0 || which == 2;
  for (size_t s = 0; s < specs.size(); ++s) {
    const int owner = specs[s].owner;
    for (int64_t i = 0; i < specs[s].n; ++i) {
      float want = test_value(tag, me, s, i);  // untouched
      if (sums && (owner == me || owner == dist::kEveryRank)) {
        want = test_value(tag, 0, s, i);
        for (int r = 1; r < w; ++r) want += test_value(tag, r, s, i);
      } else if (!sums && owner != dist::kEveryRank) {
        want = test_value(tag, owner, s, i);
      }
      if (bits_of(data[s][static_cast<size_t>(i)]) != bits_of(want))
        return false;
    }
  }
  return true;
}

// The bucketed reduce-scatter and all-gather (and all-reduce and broadcast
// on top of them) against sums and copies the test computes itself, bit for
// bit: segments of length 0, 1, odd and longer than a bucket, crossing
// bucket boundaries, with mixed owners. Non-owned segments must stay as they
// were. 50 back-to-back rounds rotate the four collectives at different
// sizes, so a parity slip between the two halves of the slot area or a
// missing barrier corrupts some round.
TEST(DistWorld, BucketedCollectivesAreRankOrderedAndExact) {
  dist::WorldConfig cfg;
  cfg.ranks = 3;
  cfg.timeout_ms = 20000;
  dist::World world(cfg);
  const int code = world.run([](dist::Communicator& comm) -> int {
    for (uint64_t k = 0; k < 50; ++k)
      for (int step = 0; step < 4; ++step) {
        const int which = static_cast<int>((k + static_cast<uint64_t>(step)) % 4);
        if (!collective_is_exact(comm, k, which)) return 10 + which;
      }
    return 0;
  });
  EXPECT_EQ(code, 0);
}

// A rank exiting with a restartable code while its peers sit inside a
// collective must drain the survivors and respawn the world at full width.
TEST(DistWorld, RestartableExitRespawnsWorld) {
  dist::WorldConfig cfg;
  cfg.ranks = 3;
  cfg.timeout_ms = 20000;
  cfg.restartable_exit_codes = {fault::kCrashExitCode};
  dist::World world(cfg);
  const int code = world.run([](dist::Communicator& comm) -> int {
    if (comm.epoch() == 0) {
      if (comm.rank() == 1) std::_Exit(fault::kCrashExitCode);
      // Survivors block in a collective rank 1 never joins; the abort
      // command surfaces as WorldInterrupt (handled by the world runner).
      std::vector<float> v(16, 1.f);
      for (;;) comm.allreduce_sum(v.data(), 16);
    }
    return comm.world() == 3 ? 0 : 9;  // respawn restores full width
  });
  EXPECT_EQ(code, 0);
  EXPECT_EQ(world.restarts(), 1);
}

TEST(DistWorld, ShrinkOnFailureNarrowsWorld) {
  dist::WorldConfig cfg;
  cfg.ranks = 2;
  cfg.timeout_ms = 20000;
  cfg.shrink_on_failure = true;
  cfg.restartable_exit_codes = {fault::kCrashExitCode};
  dist::World world(cfg);
  const int code = world.run([](dist::Communicator& comm) -> int {
    if (comm.epoch() == 0 && comm.rank() == 1)
      std::_Exit(fault::kCrashExitCode);
    if (comm.epoch() == 0) {
      std::vector<float> v(16, 1.f);
      for (;;) comm.allreduce_sum(v.data(), 16);
    }
    return comm.world() == 1 ? 0 : 9;
  });
  EXPECT_EQ(code, 0);
  EXPECT_EQ(world.restarts(), 1);
}

// --- ZeRO-1 sharded updates -------------------------------------------------

// Mirror of the optimizer_api_test fixture: mixed projected / dense / 1-D
// shapes so sharding crosses every state family.
struct ParamSet {
  std::vector<std::unique_ptr<nn::Parameter>> owned;
  nn::ParamList list;

  explicit ParamSet(uint64_t seed) {
    Rng rng(seed);
    auto add = [&](int64_t rows, int64_t cols, bool matrix) {
      std::string nm = "p";
      nm += std::to_string(owned.size());
      owned.push_back(
          std::make_unique<nn::Parameter>(nm, rows, cols, matrix));
      owned.back()->value.fill_gaussian(rng, 0.f, 1.f);
      list.push_back(owned.back().get());
    };
    add(12, 8, true);
    add(8, 12, true);
    add(3, 3, true);
    add(1, 8, false);
    add(16, 6, true);
  }

  void fill_grads(uint64_t seed) {
    Rng rng(seed);
    for (auto& p : owned) p->grad.fill_gaussian(rng, 0.f, 0.1f);
  }
};

// W sharded optimizer replicas — each stepping only its owned slots, with
// the owner's weights copied to the others (the trainer's broadcast) — must
// reproduce one unsharded optimizer bit for bit, and each replica must hold
// strictly less state than the whole.
TEST(Zero1, ShardedWorldMatchesUnshardedBitForBit) {
  constexpr int kWorld = 4;
  for (const std::string& name : {std::string("adamw"), std::string("apollo"),
                                  std::string("apollo-mini")}) {
    SCOPED_TRACE(name);
    core::FactoryOptions fo;
    fo.rank = 4;
    fo.update_freq = 3;
    fo.weight_decay = 0.01f;
    auto mono = core::make_optimizer(name, fo);
    ASSERT_NE(mono, nullptr);
    mono->set_lr(1e-3f);
    ParamSet pm(7);
    std::vector<std::unique_ptr<optim::Optimizer>> opts;
    std::vector<std::unique_ptr<ParamSet>> ps;
    for (int r = 0; r < kWorld; ++r) {
      opts.push_back(core::make_optimizer(name, fo));
      opts.back()->set_lr(1e-3f);
      opts.back()->set_shard(r, kWorld);
      ps.push_back(std::make_unique<ParamSet>(7));
    }
    const int n = static_cast<int>(pm.list.size());
    for (int step = 0; step < 8; ++step) {
      pm.fill_grads(100 + static_cast<uint64_t>(step));
      mono->step(pm.list);
      for (int r = 0; r < kWorld; ++r) {
        ps[static_cast<size_t>(r)]->fill_grads(100 +
                                               static_cast<uint64_t>(step));
        opts[static_cast<size_t>(r)]->begin_step(
            ps[static_cast<size_t>(r)]->list);
        for (int i = 0; i < n; ++i)
          if (opts[static_cast<size_t>(r)]->owns_slot(i))
            opts[static_cast<size_t>(r)]->step_param(
                *ps[static_cast<size_t>(r)]->list[static_cast<size_t>(i)], i);
        opts[static_cast<size_t>(r)]->end_step(
            ps[static_cast<size_t>(r)]->list);
      }
      for (int i = 0; i < n; ++i) {  // the broadcast from each slot's owner
        const int owner = i % kWorld;
        for (int r = 0; r < kWorld; ++r)
          if (r != owner)
            ps[static_cast<size_t>(r)]->list[static_cast<size_t>(i)]->value =
                ps[static_cast<size_t>(owner)]
                    ->list[static_cast<size_t>(i)]
                    ->value;
      }
      for (int i = 0; i < n; ++i)
        EXPECT_TRUE(pm.list[static_cast<size_t>(i)]->value ==
                    ps[0]->list[static_cast<size_t>(i)]->value)
            << "step " << step << ", param "
            << pm.list[static_cast<size_t>(i)]->name;
    }
    // Each shard holds strictly less than the whole; together (heavy moments
    // partition exactly, per-slot metadata is replicated) they cover it.
    int64_t sum = 0;
    for (int r = 0; r < kWorld; ++r) {
      EXPECT_LT(opts[static_cast<size_t>(r)]->state_bytes(),
                mono->state_bytes());
      sum += opts[static_cast<size_t>(r)]->state_bytes();
    }
    EXPECT_GE(sum, mono->state_bytes());
  }
}

// --- shard checkpoint round-trips -------------------------------------------

nn::LlamaConfig tiny_config() {
  nn::LlamaConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.intermediate = 40;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.seq_len = 8;
  return cfg;
}

void fill_model_grads(const nn::ParamList& params, uint64_t seed) {
  Rng rng(seed);
  for (nn::Parameter* p : params) p->grad.fill_gaussian(rng, 0.f, 0.1f);
}

// Saves shard sets at two widths from one trained optimizer, resumes them
// into fresh models/optimizers at *different* widths (2→1 and 4→2), and
// proves the merged state continues the exact trajectory: one more
// identical-gradient step lands on bit-identical weights everywhere.
TEST(ShardCheckpoint, RoundTripsAcrossWidthChanges) {
  const std::string dir2 =
      std::string(::testing::TempDir()) + "dist_shards_w2";
  const std::string dir4 =
      std::string(::testing::TempDir()) + "dist_shards_w4";
  std::filesystem::remove_all(dir2);
  std::filesystem::remove_all(dir4);

  const nn::LlamaConfig cfg = tiny_config();
  core::ApolloConfig acfg;
  acfg.rank = 2;
  acfg.update_freq = 2;  // cross a projector refresh before saving
  nn::LlamaModel model(cfg, 3);
  core::Apollo opt(acfg);
  opt.set_lr(1e-2f);
  nn::ParamList params = model.parameters();
  for (int s = 0; s < 3; ++s) {
    fill_model_grads(params, 100 + static_cast<uint64_t>(s));
    opt.step(params);
  }

  std::string err;
  for (int r = 0; r < 2; ++r) {
    train::DdpCheckpointRotator rot(dir2, 2, r, 2);
    opt.set_shard(r, 2);
    ASSERT_TRUE(rot.save(model, 7, opt, &err)) << err;
  }
  for (int r = 0; r < 4; ++r) {
    train::DdpCheckpointRotator rot(dir4, 2, r, 4);
    opt.set_shard(r, 4);
    ASSERT_TRUE(rot.save(model, 7, opt, &err)) << err;
  }
  opt.set_shard(0, 1);
  EXPECT_EQ(train::shard_world_at(dir2, 7), 2);
  EXPECT_EQ(train::shard_world_at(dir4, 7), 4);

  // Width 2 → 1: a single process absorbs the whole shard set.
  nn::LlamaModel m1(cfg, 9);
  core::Apollo o1(acfg);
  o1.set_lr(1e-2f);
  const auto r1 = train::auto_resume_ddp(dir2, m1, &o1);
  ASSERT_TRUE(r1.resumed) << r1.error;
  EXPECT_EQ(r1.step, 7);
  EXPECT_TRUE(r1.optimizer_state_restored);
  nn::ParamList p1 = m1.parameters();
  for (size_t i = 0; i < params.size(); ++i)
    ASSERT_TRUE(p1[i]->value == params[i]->value) << params[i]->name;

  // Width 4 → 2: two ranks each merge all four shards, keeping only the
  // heavy state for their redistributed ownership.
  nn::LlamaModel m2a(cfg, 13), m2b(cfg, 14);
  core::Apollo o2a(acfg), o2b(acfg);
  o2a.set_lr(1e-2f);
  o2b.set_lr(1e-2f);
  o2a.set_shard(0, 2);
  o2b.set_shard(1, 2);
  ASSERT_TRUE(train::auto_resume_ddp(dir4, m2a, &o2a).resumed);
  ASSERT_TRUE(train::auto_resume_ddp(dir4, m2b, &o2b).resumed);
  nn::ParamList p2a = m2a.parameters();
  nn::ParamList p2b = m2b.parameters();

  // One more identical-gradient step from every resume point.
  fill_model_grads(params, 777);
  opt.step(params);
  fill_model_grads(p1, 777);
  o1.step(p1);
  fill_model_grads(p2a, 777);
  fill_model_grads(p2b, 777);
  o2a.begin_step(p2a);
  o2b.begin_step(p2b);
  for (int i = 0; i < static_cast<int>(p2a.size()); ++i) {
    if (o2a.owns_slot(i)) o2a.step_param(*p2a[static_cast<size_t>(i)], i);
    if (o2b.owns_slot(i)) o2b.step_param(*p2b[static_cast<size_t>(i)], i);
  }
  o2a.end_step(p2a);
  o2b.end_step(p2b);
  for (int i = 0; i < static_cast<int>(p2a.size()); ++i) {
    // The trainer's broadcast: the slot owner's weights win on both ranks.
    if (o2a.owns_slot(i))
      p2b[static_cast<size_t>(i)]->value = p2a[static_cast<size_t>(i)]->value;
    else
      p2a[static_cast<size_t>(i)]->value = p2b[static_cast<size_t>(i)]->value;
  }
  for (size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(p1[i]->value == params[i]->value) << params[i]->name;
    EXPECT_TRUE(p2a[i]->value == params[i]->value) << params[i]->name;
  }

  std::filesystem::remove_all(dir2);
  std::filesystem::remove_all(dir4);
}

// --- end-to-end subprocess drills -------------------------------------------

#ifdef APOLLO_TRAIN_BIN

constexpr const char* kShape =
    " --hidden 64 --layers 2 --heads 4 --inter 128 --vocab 128 --seq 32"
    " --optimizer apollo --rank 4 --batch 2 --eval-every 0 --seed 11";

int run_cmd(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << cmd;
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

double final_ppl_from_csv(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::string line, last;
  while (std::getline(in, line))
    if (!line.empty()) last = line;
  const size_t c1 = last.find(','), c2 = last.find(',', c1 + 1);
  EXPECT_NE(c2, std::string::npos) << "bad csv row: " << last;
  return std::strtod(last.c_str() + c2 + 1, nullptr);
}

std::string file_contents(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Concatenated "key":value occurrences across a metrics JSONL file — a
// textual fingerprint of one metric's full trajectory. Two runs with
// bit-identical trajectories print bit-identical streams.
std::string metric_stream(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  const std::string needle = "\"" + key + "\":";
  std::string line, out;
  while (std::getline(in, line)) {
    const size_t p = line.find(needle);
    if (p == std::string::npos) continue;
    const size_t e = line.find_first_of(",}", p + needle.size());
    out.append(line, p, e - p);
    out += '\n';
  }
  EXPECT_FALSE(out.empty()) << key << " never appears in " << path;
  return out;
}

// The acceptance contract: a 4-rank world at the same global batch emits
// the exact loss and grad-norm streams of `--grad-accum 4`, on every rank.
TEST(DistE2E, FourRanksBitIdenticalToGradAccum) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_bitid";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string bin = APOLLO_TRAIN_BIN;
  const std::string cd = "cd " + dir + " && ";
  const std::string args = std::string(kShape) + " --steps 25";

  ASSERT_EQ(run_cmd(cd + "APOLLO_METRICS=solo.jsonl " + bin + args +
                    " --grad-accum 4 > solo.log 2>&1"),
            0);
  ASSERT_EQ(run_cmd(cd + "APOLLO_METRICS=shm.jsonl " + bin + args +
                    " --ranks 4 > shm.log 2>&1"),
            0);

  for (const char* key : {"loss", "grad_norm"}) {
    SCOPED_TRACE(key);
    const std::string solo = metric_stream(dir + "/solo.jsonl", key);
    EXPECT_EQ(solo, metric_stream(dir + "/shm.jsonl.rank0", key));
    EXPECT_EQ(solo, metric_stream(dir + "/shm.jsonl.rank3", key));
  }
  std::filesystem::remove_all(dir);
}

// The fused driver under a world: `--fused-update --ranks 4` reduces and
// gathers leaf by leaf inside backward, and must still emit the exact loss
// and grad-norm streams of `--grad-accum 4`, on every rank.
TEST(DistE2E, FusedFourRanksBitIdenticalToGradAccum) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_fused";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string bin = APOLLO_TRAIN_BIN;
  const std::string cd = "cd " + dir + " && ";
  const std::string args = std::string(kShape) + " --steps 25";

  ASSERT_EQ(run_cmd(cd + "APOLLO_METRICS=solo.jsonl " + bin + args +
                    " --grad-accum 4 > solo.log 2>&1"),
            0);
  ASSERT_EQ(run_cmd(cd + "APOLLO_METRICS=fused.jsonl " + bin + args +
                    " --fused-update --ranks 4 > fused.log 2>&1"),
            0);

  for (const char* key : {"loss", "grad_norm"}) {
    SCOPED_TRACE(key);
    const std::string solo = metric_stream(dir + "/solo.jsonl", key);
    EXPECT_EQ(solo, metric_stream(dir + "/fused.jsonl.rank0", key));
    EXPECT_EQ(solo, metric_stream(dir + "/fused.jsonl.rank3", key));
  }
  std::filesystem::remove_all(dir);
}

// Kill-rank drill: a planted SIGKILL-equivalent crash on rank 2 must be
// detected, the world drained and respawned, every rank auto-resumed from
// the newest complete shard set — and the deterministic batch replay must
// land on the uninterrupted run's final perplexity exactly.
TEST(DistE2E, KillRankRecoversOntoSameTrajectory) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_kill";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string bin = APOLLO_TRAIN_BIN;
  const std::string cd = "cd " + dir + " && ";
  const std::string args =
      std::string(kShape) + " --steps 40 --ranks 4 --ckpt-every 10";

  ASSERT_EQ(run_cmd(cd + bin + args +
                    " --ckpt-dir clean_ckpts --csv clean.csv"
                    " > clean.log 2> clean.err"),
            0);
  ASSERT_EQ(run_cmd(cd + "APOLLO_FAULTS='crash@20:2' " + bin + args +
                    " --ckpt-dir ckpts --csv rec.csv > rec.log 2> rec.err"),
            0);

  const std::string log = file_contents(dir + "/rec.err");
  EXPECT_NE(log.find("rank 2 lost"), std::string::npos) << log;
  EXPECT_NE(log.find("restarting world"), std::string::npos) << log;
  const double clean = final_ppl_from_csv(dir + "/clean.csv");
  const double recovered = final_ppl_from_csv(dir + "/rec.csv");
  ASSERT_GT(clean, 1.0);
  EXPECT_DOUBLE_EQ(recovered, clean);
  std::filesystem::remove_all(dir);
}

// Hang drill: a rank that stops making progress (alive, heartbeat stalled)
// must be detected by the supervisor's timeout, killed, and recovered from.
TEST(DistE2E, HungRankIsDetectedAndRecovered) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_hang";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string bin = APOLLO_TRAIN_BIN;
  const std::string cd = "cd " + dir + " && ";

  ASSERT_EQ(run_cmd(cd + "APOLLO_FAULTS='hang@10:1' " + bin + kShape +
                    " --steps 20 --ranks 2 --dist-timeout-ms 2000"
                    " --ckpt-dir ckpts --ckpt-every 5 --csv rec.csv"
                    " > rec.log 2> rec.err"),
            0);
  const std::string log = file_contents(dir + "/rec.err");
  EXPECT_NE(log.find("killing unresponsive rank 1"), std::string::npos)
      << log;
  EXPECT_NE(log.find("restarting world"), std::string::npos) << log;
  EXPECT_TRUE(std::isfinite(final_ppl_from_csv(dir + "/rec.csv")));
  std::filesystem::remove_all(dir);
}

// A world size outside [1, kMaxRanks] is a usage error: apollo-train names
// the range and exits 1 before any World is built (World itself aborts).
TEST(DistE2E, RanksOutsideRangeIsAUsageError) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_ranks";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string bin = APOLLO_TRAIN_BIN;
  for (const char* ranks : {"17", "0"}) {
    SCOPED_TRACE(ranks);
    EXPECT_EQ(run_cmd("cd " + dir + " && " + bin + kShape +
                      " --steps 2 --ranks " + ranks + " > out.log 2>&1"),
              1);
    const std::string log = file_contents(dir + "/out.log");
    EXPECT_NE(log.find("error: --ranks must be in [1, 16]"),
              std::string::npos)
        << log;
  }
  std::filesystem::remove_all(dir);
}

TEST(DistE2E, UnknownModelSizeIsAUsageError) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_model";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_EQ(run_cmd("cd " + dir + " && " + APOLLO_TRAIN_BIN +
                    " --model 70m --steps 2 > out.log 2>&1"),
            1);
  const std::string log = file_contents(dir + "/out.log");
  EXPECT_NE(log.find("error: --model must be one of 60m, 130m, 350m, 1b, 7b"),
            std::string::npos)
      << log;
  std::filesystem::remove_all(dir);
}

// Lines of `text` that contain `needle`.
int count_lines_with(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  std::string line;
  int n = 0;
  while (std::getline(in, line))
    if (line.find(needle) != std::string::npos) ++n;
  return n;
}

// A value that does not parse whole, or does not fit the flag's integer
// type, is a usage error, and so are an unknown optimizer and an unreadable
// data file. Options are read and checked before any rank is forked, so
// under --ranks the error prints once and no rank fails.
TEST(DistE2E, MalformedNumberIsAUsageError) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_number";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  struct Case {
    const char* args;
    const char* error;
  };
  for (const Case& c :
       {Case{" --steps 1e3", "error: --steps expects an integer, got '1e3'"},
        Case{" --steps 4294967297",
             "error: --steps expects an integer, got '4294967297'"},
        Case{" --steps 1e3 --ranks 2",
             "error: --steps expects an integer, got '1e3'"},
        Case{" --optimizer nosuch --ranks 2",
             "error: unknown optimizer 'nosuch'"},
        Case{" --data /nonexistent.txt --ranks 2",
             "error: --data /nonexistent.txt:"}}) {
    SCOPED_TRACE(c.args);
    EXPECT_EQ(run_cmd("cd " + dir + " && " + APOLLO_TRAIN_BIN +
                      " --model 60m --batch 1 --eval-every 0" + c.args +
                      " > out.log 2>&1"),
              1);
    const std::string log = file_contents(dir + "/out.log");
    EXPECT_EQ(count_lines_with(log, c.error), 1) << log;
    EXPECT_EQ(count_lines_with(log, "error:"), 1) << log;
    EXPECT_EQ(count_lines_with(log, "[dist]"), 0) << log;
  }
  std::filesystem::remove_all(dir);
}

#endif  // APOLLO_TRAIN_BIN

}  // namespace
}  // namespace apollo
