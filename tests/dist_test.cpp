// Distributed data-parallel suite: rank-scoped fault specs, the World
// supervisor's collectives (bit for bit against rank-ordered sums) and
// restart machinery, ZeRO-1 sharded-update equivalence, shard-checkpoint
// round-trips across width changes, and the end-to-end contracts — a 4-rank
// world, classic or fused, must reproduce the single-process
// `--grad-accum 4` loss/grad-norm streams bit for bit, and a 2-rank world
// under the watchdog those of `--grad-accum 2`; a world that loses a rank
// (crash or hang) must auto-recover onto the same trajectory, a rollback
// must fall back past a corrupt newest checkpoint, and an out-of-range
// --ranks, a malformed number, a bad model shape or a zero count is
// refused with one usage error.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/apollo.h"
#include "core/factory.h"
#include "data/corpus.h"
#include "dist/world.h"
#include "fault/fault_injection.h"
#include "nn/llama.h"
#include "optim/lowrank.h"
#include "tensor/matrix.h"
#include "train/checkpoint.h"
#include "train/resilience.h"
#include "train/trainer.h"

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

// One rank of a world: its model and optimizer.
struct Replica {
  std::unique_ptr<nn::LlamaModel> model;
  std::unique_ptr<optim::Optimizer> opt;
};

using OptimizerMaker = std::function<std::unique_ptr<optim::Optimizer>()>;

// Every factory optimizer at rank 2, crossing a projector refresh (and
// GoLore's switch) every 2 steps, and a ReLoRA that restarts every 2 steps:
// each rank's restart draws from rng_ by the factor shapes of every slot,
// owned or not.
std::vector<std::pair<std::string, OptimizerMaker>> shard_test_optimizers() {
  std::vector<std::pair<std::string, OptimizerMaker>> out;
  for (const std::string& name : core::known_optimizers())
    out.emplace_back(name, [name] {
      core::FactoryOptions fo;
      fo.rank = 2;
      fo.update_freq = 2;
      return core::make_optimizer(name, fo);
    });
  out.emplace_back("relora, merging every 2 steps", [] {
    optim::AdapterConfig cfg;
    cfg.kind = optim::AdapterKind::kRelora;
    cfg.rank = 2;
    cfg.merge_freq = 2;
    return std::make_unique<optim::LowRankAdapter>(cfg);
  });
  return out;
}

// A world of `width` replicas, rank r's model initialized with seed
// `seed(r)` and its optimizer sharded r of `width`.
template <class Seed>
std::vector<Replica> make_world(const OptimizerMaker& make, int width,
                                Seed seed) {
  std::vector<Replica> world;
  for (int r = 0; r < width; ++r) {
    world.push_back(
        {std::make_unique<nn::LlamaModel>(tiny_config(), seed(r)), make()});
    world.back().opt->set_lr(1e-2f);
    world.back().opt->set_shard(r, width);
  }
  return world;
}

// A world of `width` fresh replicas (their own inits, so every weight must
// come from the files) resumed from the shard sets in `dir`.
std::vector<Replica> resume_world(const OptimizerMaker& make,
                                  const std::string& dir, int width) {
  std::vector<Replica> world =
      make_world(make, width, [](int r) { return 20 + r; });
  for (Replica& rep : world) {
    const auto rr = train::auto_resume(dir, *rep.model, rep.opt.get());
    EXPECT_TRUE(rr.resumed) << rr.error;
    EXPECT_EQ(rr.step, 7);
    EXPECT_TRUE(rr.optimizer_state_restored);
  }
  return world;
}

// One step of a world on the gradients of `seed`, in the classic driver's
// order: every rank begins, owners step their slots, every rank ends, and
// each slot's owner's weights reach the other ranks (the all-gather).
void step_world(std::vector<Replica>& world, uint64_t seed) {
  std::vector<nn::ParamList> params;
  for (Replica& rep : world) {
    params.push_back(rep.model->parameters());
    fill_model_grads(params.back(), seed);
    rep.opt->begin_step(params.back());
  }
  const int n = static_cast<int>(params[0].size());
  for (size_t r = 0; r < world.size(); ++r)
    for (int i = 0; i < n; ++i)
      if (world[r].opt->owns_slot(i))
        world[r].opt->step_param(*params[r][static_cast<size_t>(i)], i);
  for (size_t r = 0; r < world.size(); ++r) world[r].opt->end_step(params[r]);
  for (int i = 0; i < n; ++i) {
    const size_t owner = static_cast<size_t>(i) % world.size();
    for (size_t r = 0; r < world.size(); ++r)
      params[r][static_cast<size_t>(i)]->value =
          params[owner][static_cast<size_t>(i)]->value;
  }
}

// For every optimizer: trains worlds of widths 2 and 4 for three steps and
// saves their shard sets, and one unsharded optimizer for the same three
// steps and saves its single-process checkpoint. Resumes them onto fresh
// worlds of other widths (2→1, 2→3, 4→2, and the single-process file →2),
// and the 2-rank set onto a Trainer with no communicator, all through the
// one auto_resume scan, and proves each resumed state is the state of a
// world of that width that was never interrupted: every rank holds the same
// resident state bytes (heavy fields for its own slots only), and two more
// identical-gradient steps land every rank on the bits of one unsharded
// optimizer.
TEST(ShardCheckpoint, RoundTripsAcrossWidthChanges) {
  const std::string tmp = ::testing::TempDir();
  const std::string dir1 = tmp + "dist_shards_w1";
  const std::string dir2 = tmp + "dist_shards_w2";
  const std::string dir4 = tmp + "dist_shards_w4";
  data::CorpusConfig ccfg;
  ccfg.vocab = tiny_config().vocab;
  const data::SyntheticCorpus corpus(ccfg);
  for (const auto& [name, make] : shard_test_optimizers()) {
    SCOPED_TRACE(name);
    for (const std::string& dir : {dir1, dir2, dir4})
      std::filesystem::remove_all(dir);
    nn::LlamaModel model(tiny_config(), 3);
    auto opt = make();
    opt->set_lr(1e-2f);
    nn::ParamList params = model.parameters();
    for (uint64_t seed = 100; seed < 103; ++seed) {
      fill_model_grads(params, seed);
      opt->step(params);
    }
    train::CheckpointRotator single(dir1, 2);
    ASSERT_TRUE(single.save(model, 7, opt.get()).ok);

    std::string err;
    for (const auto& [dir, width] : {std::pair{dir2, 2}, std::pair{dir4, 4}}) {
      std::vector<Replica> world =
          make_world(make, width, [](int) { return 3; });
      for (uint64_t seed = 100; seed < 103; ++seed) step_world(world, seed);
      for (int r = 0; r < width; ++r) {
        train::CheckpointRotator rot(dir, 2, r, width);
        const Replica& rep = world[static_cast<size_t>(r)];
        ASSERT_TRUE(rot.save(*rep.model, 7, *rep.opt, &err)) << err;
      }
      EXPECT_EQ(train::shard_world_at(dir, 7), width);
    }

    for (const uint64_t seed : {777, 778}) {
      fill_model_grads(params, seed);
      opt->step(params);
    }
    // Continues `world` next to one that never stopped and compares them.
    const auto expect_uninterrupted = [&](std::vector<Replica>& world) {
      const int width = static_cast<int>(world.size());
      std::vector<Replica> straight =
          make_world(make, width, [](int) { return 3; });
      for (uint64_t seed = 100; seed < 103; ++seed) step_world(straight, seed);
      for (const uint64_t seed : {777, 778}) {
        step_world(world, seed);
        step_world(straight, seed);
      }
      for (size_t r = 0; r < world.size(); ++r) {
        EXPECT_EQ(world[r].opt->state_bytes(), straight[r].opt->state_bytes())
            << "rank " << r;
        const nn::ParamList got = world[r].model->parameters();
        for (size_t i = 0; i < params.size(); ++i)
          EXPECT_TRUE(got[i]->value == params[i]->value) << params[i]->name;
      }
    };
    for (const auto& [dir, width] :
         {std::pair{dir2, 1}, std::pair{dir2, 3}, std::pair{dir4, 2},
          std::pair{dir1, 2}}) {
      SCOPED_TRACE(dir + " onto width " + std::to_string(width));
      std::vector<Replica> world = resume_world(make, dir, width);
      ASSERT_FALSE(HasFailure()) << "the world did not resume";
      expect_uninterrupted(world);
    }
    {
      SCOPED_TRACE(dir2 + " onto a Trainer with no communicator");
      std::vector<Replica> world =
          make_world(make, 1, [](int) { return 20; });
      train::TrainConfig tc;
      tc.steps = 7;  // resumes at the last step: trains nothing
      tc.batch = 1;
      tc.eval_batches = 1;
      tc.resilience.ckpt_dir = dir2;
      const train::TrainResult res =
          train::Trainer(*world[0].model, *world[0].opt, corpus, tc).run();
      ASSERT_EQ(res.resumed_from_step, 7) << res.divergence_diagnostics;
      expect_uninterrupted(world);
    }
  }
  for (const std::string& dir : {dir1, dir2, dir4})
    std::filesystem::remove_all(dir);
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

// Lines of `text` that contain `needle`.
int count_lines_with(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  std::string line;
  int n = 0;
  while (std::getline(in, line))
    if (line.find(needle) != std::string::npos) ++n;
  return n;
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

// Under --ranks a rank holds one ZeRO-1 shard of the optimizer state, so
// `--save` writes the weights alone; the run's optimizer state is its shard
// set in --ckpt-dir.
TEST(DistE2E, SaveUnderRanksHoldsWeightsOnly) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_save";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(run_cmd("cd " + dir + " && " + APOLLO_TRAIN_BIN + kShape +
                    " --steps 2 --ranks 2 --save s.aplo > out.log 2>&1"),
            0);
  EXPECT_NE(file_contents(dir + "/out.log").find("(weights only;"),
            std::string::npos);
  nn::LlamaConfig cfg;
  cfg.hidden = 64;
  cfg.n_layers = 2;
  cfg.n_heads = 4;
  cfg.intermediate = 128;
  cfg.vocab = 128;
  cfg.seq_len = 32;
  nn::LlamaModel model(cfg, 1);
  core::FactoryOptions fo;
  fo.rank = 4;
  auto opt = core::make_optimizer("apollo", fo);
  const auto l = train::load_checkpoint(dir + "/s.aplo", model, opt.get());
  EXPECT_TRUE(l.ok) << l.error;
  EXPECT_EQ(l.step, 2);
  EXPECT_FALSE(l.optimizer_state_restored);
  std::filesystem::remove_all(dir);
}

// A single-process checkpoint loaded under --ranks leaves each rank its
// ZeRO-1 shard of the optimizer state, as a run that started sharded holds.
TEST(DistE2E, LoadUnderRanksKeepsEachRanksShard) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_load";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string run = "cd " + dir + " && " + APOLLO_TRAIN_BIN + kShape +
                          " --optimizer adamw --steps 2";
  ASSERT_EQ(run_cmd(run + " --save s.aplo > solo.log 2>&1"), 0);
  ASSERT_EQ(run_cmd(run + " --ranks 2 > fresh.log 2>&1"), 0);
  ASSERT_EQ(run_cmd(run + " --ranks 2 --load s.aplo > loaded.log 2>&1"), 0);
  const std::string fresh = file_contents(dir + "/fresh.log");
  const std::string loaded = file_contents(dir + "/loaded.log");
  const auto state_line = [](const std::string& log) {
    const size_t at = log.find("optimizer state:");
    return at == std::string::npos ? std::string()
                                   : log.substr(at, log.find('\n', at) - at);
  };
  EXPECT_NE(loaded.find("with optimizer state"), std::string::npos) << loaded;
  EXPECT_NE(state_line(fresh), "");
  EXPECT_EQ(state_line(loaded), state_line(fresh));
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

// The watchdog under a world: a NaN gradient at step 6 rolls every rank
// back to the step-4 checkpoint once, and every rank's loss and grad-norm
// streams are the `--grad-accum 2 --watchdog` run's, on both drivers. The
// replay after the rollback skips step x world batches, as a resume does.
TEST(DistE2E, WatchdogUnderRanksMatchesGradAccum) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_wd";
  const std::string bin = APOLLO_TRAIN_BIN;
  const std::string cd = "cd " + dir + " && APOLLO_FAULTS=nan_grad@6 ";
  for (const char* driver : {"", " --fused-update"}) {
    SCOPED_TRACE(driver[0] != '\0' ? "fused" : "classic");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string args = std::string(kShape) + driver +
                             " --steps 10 --ckpt-every 4 --watchdog";
    ASSERT_EQ(run_cmd(cd + "APOLLO_METRICS=solo.jsonl " + bin + args +
                      " --grad-accum 2 --ckpt-dir solo > solo.log 2>&1"),
              0);
    ASSERT_EQ(run_cmd(cd + "APOLLO_METRICS=world.jsonl " + bin + args +
                      " --ranks 2 --ckpt-dir world > world.log 2>&1"),
              0);
    const std::string log = file_contents(dir + "/world.log");
    EXPECT_EQ(count_lines_with(log, "rolled back to step 4"), 2) << log;
    for (const char* key : {"loss", "grad_norm"}) {
      SCOPED_TRACE(key);
      const std::string solo = metric_stream(dir + "/solo.jsonl", key);
      EXPECT_EQ(solo, metric_stream(dir + "/world.jsonl.rank0", key));
      EXPECT_EQ(solo, metric_stream(dir + "/world.jsonl.rank1", key));
    }
  }
  std::filesystem::remove_all(dir);
}

// A rollback scans back past a corrupt newest checkpoint: the step-8 file's
// optimizer section is bit-flipped, so a NaN at step 10 rolls back to step
// 4 and the run finishes, on one rank and on every rank of two.
TEST(DistE2E, RollbackSkipsACorruptNewestCheckpoint) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_wd_flip";
  for (const int ranks : {1, 2}) {
    SCOPED_TRACE(ranks);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ASSERT_EQ(run_cmd("cd " + dir + " && APOLLO_FAULTS='bitflip_opt@8;"
                      "nan_grad@10' " + APOLLO_TRAIN_BIN + kShape +
                      " --steps 12 --ckpt-every 4 --watchdog --ckpt-dir c"
                      " --ranks " + std::to_string(ranks) + " > out.log 2>&1"),
              0);
    const std::string log = file_contents(dir + "/out.log");
    EXPECT_EQ(count_lines_with(log, "skipped corrupt checkpoint c/ckpt_8"),
              ranks)
        << log;
    EXPECT_EQ(count_lines_with(log, "rolled back to step 4"), ranks) << log;
  }
  std::filesystem::remove_all(dir);
}

// A world restarted after a rank loss continues its own run from its own
// checkpoints, even under --no-resume, which refuses only a directory that
// held checkpoints before the run began.
TEST(DistE2E, RestartedWorldResumesUnderNoResume) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_nores";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_EQ(run_cmd("cd " + dir + " && APOLLO_FAULTS='crash@6:1' " +
                    APOLLO_TRAIN_BIN + kShape +
                    " --steps 8 --ranks 2 --ckpt-dir c --ckpt-every 4"
                    " --no-resume > out.log 2>&1"),
            0);
  const std::string log = file_contents(dir + "/out.log");
  EXPECT_NE(log.find("restarting world"), std::string::npos) << log;
  EXPECT_EQ(count_lines_with(log, "continuing from step 4"), 2) << log;
  std::filesystem::remove_all(dir);
}

// A rank's shard is a checkpoint file like any other: each checkpoint
// fault scoped to rank 1 fires in its step-8 shard, the restarted world
// skips step 8 on every rank and resumes from step 4, and the run writes
// the uninterrupted run's --save bytes. The planted mid-save kill (exit 86)
// is a rank loss, like a planted crash. No step is pruned before the last
// rank commits the shard set that replaces it, so even --ckpt-keep 1
// leaves step 4 to resume from.
TEST(DistE2E, RankShardFaultsRecoverOntoTheUninterruptedBytes) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_shard";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string cd = "cd " + dir + " && ";
  const std::string run = std::string(APOLLO_TRAIN_BIN) + kShape +
                          " --steps 12 --ranks 2 --ckpt-every 4";
  ASSERT_EQ(run_cmd(cd + run + " --save clean.aplo > clean.log 2>&1"), 0);
  const std::string clean = file_contents(dir + "/clean.aplo");
  const struct {
    const char* spec;
    const char* keep;
    const char* fired;
    std::vector<int64_t> left;
  } drills[] = {
      {"crash_save@8:1", "3", "[fault] injected crash_save at step 8 (rank 1)",
       {4, 8, 12}},
      {"trunc_ckpt@8:1;crash@10", "3",
       "[fault] injected trunc_ckpt at step 8 (rank 1)", {4, 8, 12}},
      {"bitflip_opt@8:1;crash@10", "3",
       "[fault] injected bitflip_opt at step 8 (rank 1)", {4, 8, 12}},
      {"crash_save@8:1", "1", "[fault] injected crash_save at step 8 (rank 1)",
       {12}},
  };
  for (const auto& d : drills) {
    SCOPED_TRACE(std::string(d.spec) + " --ckpt-keep " + d.keep);
    std::filesystem::remove_all(dir + "/c");
    ASSERT_EQ(run_cmd(cd + "APOLLO_FAULTS='" + d.spec + "' " + run +
                      " --ckpt-keep " + d.keep +
                      " --ckpt-dir c --save faulted.aplo > out.log 2>&1"),
              0);
    const std::string log = file_contents(dir + "/out.log");
    EXPECT_EQ(count_lines_with(log, d.fired), 1) << log;
    EXPECT_EQ(count_lines_with(log, "restarting world"), 1) << log;
    EXPECT_EQ(count_lines_with(log, "skipped corrupt checkpoint c/ckpt_8"), 2)
        << log;
    EXPECT_EQ(count_lines_with(log, "continuing from step 4"), 2) << log;
    EXPECT_TRUE(file_contents(dir + "/faulted.aplo") == clean);
    EXPECT_EQ(train::CheckpointRotator::list_steps(dir + "/c"), d.left);
    EXPECT_EQ(train::shard_world_at(dir + "/c", 12), 2);
  }
  std::filesystem::remove_all(dir);
}

// A rank lost while writing the first checkpoint leaves a step without
// its whole shard set and nothing older: the restarted world skips it,
// starts over, and writes the uninterrupted run's --save bytes.
TEST(DistE2E, RankLostInTheFirstSaveStartsOver) {
  const std::string dir = std::string(::testing::TempDir()) + "dist_first";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string cd = "cd " + dir + " && ";
  const std::string run = std::string(APOLLO_TRAIN_BIN) + kShape +
                          " --steps 8 --ranks 2 --ckpt-every 4";
  ASSERT_EQ(run_cmd(cd + run + " --save clean.aplo > clean.log 2>&1"), 0);
  ASSERT_EQ(run_cmd(cd + "APOLLO_FAULTS='crash_save@4:1' " + run +
                    " --ckpt-dir c --save faulted.aplo > out.log 2>&1"),
            0);
  const std::string log = file_contents(dir + "/out.log");
  EXPECT_EQ(count_lines_with(log, "restarting world"), 1) << log;
  EXPECT_EQ(count_lines_with(log, "c/ckpt_4.aplo: no complete optimizer "
                                  "shard set"),
            2)
      << log;
  EXPECT_EQ(count_lines_with(log, "continuing from step"), 0) << log;
  EXPECT_TRUE(file_contents(dir + "/faulted.aplo") ==
              file_contents(dir + "/clean.aplo"));
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

// A value that does not parse whole, or does not fit the flag's integer
// type, is a usage error, and so are an unknown optimizer, an unreadable
// data file, a model shape LlamaModel cannot build and a count below 1.
// Options are read and checked before any rank is forked, so under --ranks
// the error prints once and no rank fails.
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
             "error: --data /nonexistent.txt:"},
        Case{" --seq 0", "error: model shape: seq_len must be positive"},
        Case{" --heads 0 --ranks 2",
             "error: model shape: n_heads must be positive"},
        Case{" --hidden 0", "error: model shape: hidden must be positive"},
        Case{" --inter 0",
             "error: model shape: intermediate must be positive"},
        Case{" --vocab 0", "error: model shape: vocab must be positive"},
        Case{" --heads 3 --ranks 2",
             "error: model shape: n_heads 3 does not divide hidden 32"},
        Case{" --hidden 8 --heads 8",
             "error: model shape: head dimension hidden/n_heads = 1 is odd"},
        Case{" --vocab 8",
             "error: the synthetic corpus needs --vocab of at least 16"},
        Case{" --batch 0 --ranks 2", "error: --batch must be at least 1"},
        Case{" --steps 0", "error: --steps must be at least 1"},
        Case{" --rank 0 --ranks 2", "error: --rank must be at least 1"},
        Case{" --update-freq 0", "error: --update-freq must be at least 1"}}) {
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
