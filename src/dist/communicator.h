// Multi-process data-parallel communication over shared memory.
//
// A *world* is a set of worker processes forked from one supervisor
// (dist/world.h). Every worker holds a Communicator wired to a shared
// anonymous memory region mapped before the fork: bulk data moves through
// that region, next to the control words — the abort command, the
// generation-counting barrier and the per-rank heartbeats read by the
// supervisor's hung-rank detector.
//
// The collectives are ZeRO's pair (DISTRIBUTED.md §2): a reduce-scatter,
// after which each rank holds the sum of only the segments it owns, and an
// all-gather, which copies each owner's segments to every other rank. Both
// take a list of segments, read as one stream in list order and cut into
// fixed-size buckets that span segment boundaries, so a step's worth of
// parameters costs a few barriers instead of a few per parameter.
//
// Double buffering: the slot area is split into two halves, and bucket
// number k (counted across every collective the rank has issued) uses half
// k % 2. Each bucket is write, barrier, read — one barrier. This is safe
// because a rank writes bucket k+2 into the half bucket k used only after it
// has passed bucket k+1's barrier, which every rank reaches only after it
// has finished reading bucket k.
//
// Determinism contract (tests/dist_test.cpp): a reduced element is the
// left-to-right rank-ordered float sum x_0[i] + x_1[i] + … + x_{W-1}[i],
// computed by every rank that owns it, whatever the bucketing. The result
// is bit-identical across ranks and runs, and — because the rank-ordered
// sum is exactly the order in which a single process accumulates
// micro-batch gradients — a W-rank world reproduces the single-process
// `--grad-accum W` trajectory bit for bit (DISTRIBUTED.md).
//
// Collectives must be called in the same order with the same segment
// lengths and owners by every rank. When the supervisor orders an abort (a
// peer died) or a peer stops participating for ~2× the configured timeout,
// the blocked collective throws WorldInterrupt; workers translate it into
// the "restart me" exit code (dist/world.h) rather than unwinding further.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>

namespace apollo::dist {

inline constexpr int kMaxRanks = 16;
// Bucket size: 32Ki floats = 128 KiB. A reduce-scatter bucket is this many
// floats of the segment stream, one copy per rank; an all-gather bucket is
// world × this many, written once by the owners. The slot area holds two
// halves of world × kBucketFloats floats (slot_area_floats), so the shared
// region's footprint is independent of model shape.
inline constexpr int64_t kBucketFloats = 32 * 1024;

// Floats in the shared slot area of a `world`-rank world: two halves, each
// one bucket per rank.
inline constexpr int64_t slot_area_floats(int world) {
  return 2 * static_cast<int64_t>(world) * kBucketFloats;
}

// Unread (shm is the only transport); kept because perfbench/ assigns kShm.
enum class Transport : uint8_t { kShm };

// Owner of a segment that every rank reduces (see Segment).
inline constexpr int kEveryRank = -1;

// One span of a bucketed collective: `n` floats at `data`, owned by rank
// `owner` or by kEveryRank.
struct Segment {
  float* data;
  int64_t n;
  int owner;
};

// Thrown from inside a collective when the world is tearing down (the
// supervisor set the abort command after losing a rank) or a peer stopped
// participating past the deadline.
struct WorldInterrupt {
  std::string reason;
};

inline constexpr uint32_t kCommandRun = 0;
inline constexpr uint32_t kCommandAbort = 1;

// Control words shared by the whole world. Lives at the start of the shared
// mapping created by World before the first fork; reset by the supervisor
// between world incarnations (no worker is alive at reset time).
struct ControlBlock {
  std::atomic<uint32_t> command;
  std::atomic<uint32_t> epoch;          // world incarnation counter
  std::atomic<uint32_t> barrier_seq;    // generation-counting barrier
  std::atomic<uint32_t> barrier_count;
  std::atomic<uint64_t> heartbeat[kMaxRanks];
};
static_assert(std::atomic<uint32_t>::is_always_lock_free &&
                  std::atomic<uint64_t>::is_always_lock_free,
              "control words must be plain lock-free atomics in shared memory");

class Communicator {
 public:
  // Assembled by World inside each worker right after fork. `slots` points
  // at slot_area_floats(world) floats of shared memory.
  Communicator(ControlBlock* ctl, float* slots, int rank, int world,
               int epoch, int timeout_ms);

  int rank() const { return rank_; }
  int world() const { return world_; }
  // 0 for the first incarnation; +1 per supervisor-driven world restart.
  int epoch() const { return epoch_; }

  // Replaces each segment this rank owns (or that kEveryRank owns) with the
  // rank-ordered sum of that segment over all ranks. Other segments are
  // left as they are.
  void reduce_scatter_sum(std::span<const Segment> segs);
  // Copies each segment from its owner to every other rank. kEveryRank
  // segments are taken to be replicated already and are left as they are.
  void all_gather(std::span<const Segment> segs);
  // In-place all-reduce SUM: every rank ends with the identical rank-ordered
  // sum. One kEveryRank segment of reduce_scatter_sum.
  void allreduce_sum(float* data, int64_t n);
  // Replicates root's data to every rank. One segment of all_gather.
  void broadcast(float* data, int64_t n, int root);
  // Counted in the registry (dist.barriers, dist.barrier_wait_us) while
  // telemetry is on.
  void barrier();
  // Liveness tick for the supervisor's hung-rank detector. The trainer
  // calls it once per step; collectives tick implicitly while waiting.
  void heartbeat();

 private:
  // This bucket's half of the slot area (see the file comment).
  float* half() {
    return slots_ + static_cast<int64_t>(bucket_ & 1) * world_ * kBucketFloats;
  }
  // The loop both collectives share: cut the segment stream into buckets
  // of `cap` floats and, per bucket, write(half, piece) each piece, pass one
  // barrier, then read(half, piece) each piece.
  template <class Write, class Read>
  void for_each_bucket(std::span<const Segment> segs, int64_t cap,
                       Write write, Read read);
  void wait_barrier();
  // Polls the abort command and the deadline while a collective waits;
  // throws WorldInterrupt on either.
  void check_interrupt(const char* what,
                       std::chrono::steady_clock::time_point deadline);
  std::chrono::steady_clock::time_point deadline() const;

  ControlBlock* ctl_;
  float* slots_;
  int rank_;
  int world_;
  int epoch_;
  int timeout_ms_;
  uint32_t bucket_ = 0;  // buckets this rank has exchanged, for the parity
};

}  // namespace apollo::dist
