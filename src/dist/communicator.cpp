#include "dist/communicator.h"

#include <sched.h>

#include <algorithm>
#include <cstring>
#include <ctime>

namespace apollo::dist {

namespace {

void nap_us(long us) {
  timespec ts{0, us * 1000L};
  nanosleep(&ts, nullptr);
}

}  // namespace

Communicator::Communicator(ControlBlock* ctl, float* slots, int rank,
                           int world, int epoch, int timeout_ms)
    : ctl_(ctl),
      slots_(slots),
      rank_(rank),
      world_(world),
      epoch_(epoch),
      timeout_ms_(timeout_ms) {}

std::chrono::steady_clock::time_point Communicator::deadline() const {
  // Workers wait 2× the supervisor's hung-rank timeout so the supervisor —
  // which names the actually-hung rank — always fires first; the local
  // deadline is a fallback for a dead supervisor.
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(2LL * timeout_ms_);
}

void Communicator::check_interrupt(
    const char* what, std::chrono::steady_clock::time_point deadline) {
  if (ctl_->command.load(std::memory_order_acquire) == kCommandAbort)
    throw WorldInterrupt{std::string("world abort during ") + what};
  if (std::chrono::steady_clock::now() >= deadline)
    throw WorldInterrupt{std::string("timeout in ") + what};
}

void Communicator::heartbeat() {
  ctl_->heartbeat[rank_].fetch_add(1, std::memory_order_relaxed);
}

void Communicator::barrier() {
  ControlBlock& c = *ctl_;
  const uint32_t gen = c.barrier_seq.load(std::memory_order_acquire);
  const uint32_t arrived =
      c.barrier_count.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (arrived == static_cast<uint32_t>(world_)) {
    // Last arrival: reset the count for the next barrier *before* releasing
    // the waiters (no rank can re-enter until the sequence advances).
    c.barrier_count.store(0, std::memory_order_relaxed);
    c.barrier_seq.store(gen + 1, std::memory_order_release);
    return;
  }
  const auto dl = deadline();
  int64_t spins = 0;
  while (c.barrier_seq.load(std::memory_order_acquire) == gen) {
    if ((++spins & 63) == 0) {
      heartbeat();
      check_interrupt("barrier", dl);
      nap_us(50);
    } else {
      sched_yield();
    }
  }
}

void Communicator::allreduce_sum(float* data, int64_t n) {
  if (world_ <= 1) return;
  for (int64_t off = 0; off < n; off += kBucketFloats) {
    const int64_t c = std::min<int64_t>(kBucketFloats, n - off);
    std::memcpy(slot(rank_), data + off,
                static_cast<size_t>(c) * sizeof(float));
    barrier();  // all slots written
    // Every rank computes the identical left-to-right rank-ordered sum —
    // sequential and scalar on purpose: this order IS the determinism
    // contract, and it matches single-process micro-batch accumulation.
    for (int64_t i = 0; i < c; ++i) {
      float acc = slot(0)[i];
      for (int r = 1; r < world_; ++r) acc += slot(r)[i];
      data[off + i] = acc;
    }
    barrier();  // all ranks done reading; slots reusable
  }
}

void Communicator::broadcast(float* data, int64_t n, int root) {
  if (world_ <= 1) return;
  for (int64_t off = 0; off < n; off += kBucketFloats) {
    const int64_t c = std::min<int64_t>(kBucketFloats, n - off);
    const size_t bytes = static_cast<size_t>(c) * sizeof(float);
    if (rank_ == root) std::memcpy(slot(root), data + off, bytes);
    barrier();
    if (rank_ != root) std::memcpy(data + off, slot(root), bytes);
    barrier();
  }
}

}  // namespace apollo::dist
