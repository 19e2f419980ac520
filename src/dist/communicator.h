// Multi-process data-parallel communication over shared memory.
//
// A *world* is a set of worker processes forked from one supervisor
// (dist/world.h). Every worker holds a Communicator wired to a shared
// anonymous memory region mapped before the fork: bulk data moves through
// per-rank slots in that region, next to the control words — the abort
// command, the generation-counting barrier and the per-rank heartbeats read
// by the supervisor's hung-rank detector.
//
// Determinism contract (tests/dist_test.cpp): all-reduce chunks data into
// fixed kBucketFloats buckets, gathers every rank's bucket, and then EVERY
// rank computes the same left-to-right rank-ordered float sum. The result
// is bit-identical across ranks and runs, and — because the
// rank-ordered sum is exactly the order in which a single process
// accumulates micro-batch gradients — a W-rank world reproduces the
// single-process `--grad-accum W` trajectory bit for bit (DISTRIBUTED.md).
//
// Collectives must be called in the same order with the same element count
// by every rank. When the supervisor orders an abort (a peer died) or a
// peer stops participating for ~2× the configured timeout, the blocked
// collective throws WorldInterrupt; workers translate it into the
// "restart me" exit code (dist/world.h) rather than unwinding further.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace apollo::dist {

inline constexpr int kMaxRanks = 16;
// All-reduce bucket size: 64K floats = 256 KiB per rank slot. Fixed, so the
// shared region's footprint is independent of model shape.
inline constexpr int64_t kBucketFloats = 64 * 1024;

// Unread (shm is the only transport); kept because perfbench/ assigns kShm.
enum class Transport : uint8_t { kShm };

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
  // at world × kBucketFloats floats of shared memory.
  Communicator(ControlBlock* ctl, float* slots, int rank, int world,
               int epoch, int timeout_ms);

  int rank() const { return rank_; }
  int world() const { return world_; }
  // 0 for the first incarnation; +1 per supervisor-driven world restart.
  int epoch() const { return epoch_; }

  // In-place deterministic all-reduce SUM over float data. Every rank ends
  // with the identical left-to-right rank-ordered sum (see file comment).
  void allreduce_sum(float* data, int64_t n);
  // Replicates root's data to every rank.
  void broadcast(float* data, int64_t n, int root);
  void barrier();
  // Liveness tick for the supervisor's hung-rank detector. The trainer
  // calls it once per step; collectives tick implicitly while waiting.
  void heartbeat();

 private:
  float* slot(int r) { return slots_ + static_cast<int64_t>(r) * kBucketFloats; }
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
};

}  // namespace apollo::dist
