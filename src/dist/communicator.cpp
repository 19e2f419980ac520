#include "dist/communicator.h"

#include <sched.h>

#include <algorithm>
#include <cstring>
#include <ctime>

#include "obs/metrics.h"
#include "obs/telemetry.h"

namespace apollo::dist {

namespace {

void nap_us(long us) {
  timespec ts{0, us * 1000L};
  nanosleep(&ts, nullptr);
}

size_t bytes(int64_t n) { return static_cast<size_t>(n) * sizeof(float); }

// A position in a segment list read as one stream of floats.
struct Cursor {
  size_t seg = 0;
  int64_t off = 0;
};

// Floats [data, data + n) of one segment, at `pos` in the current bucket.
struct Piece {
  float* data;
  int64_t n;
  int owner;
  int64_t pos;
};

// Moves `c` past used-up and empty segments.
void settle(std::span<const Segment> segs, Cursor& c) {
  while (c.seg < segs.size() && c.off >= segs[c.seg].n) {
    ++c.seg;
    c.off = 0;
  }
}

// Calls fn(piece) for each piece of the bucket of `cap` stream floats that
// starts at the settled cursor `c`; returns where the next bucket starts,
// settled.
template <class Fn>
Cursor for_each_piece(std::span<const Segment> segs, Cursor c, int64_t cap,
                      Fn fn) {
  for (int64_t pos = 0; pos < cap && c.seg < segs.size();) {
    const Segment& s = segs[c.seg];
    const int64_t k = std::min(s.n - c.off, cap - pos);
    fn(Piece{s.data + c.off, k, s.owner, pos});
    c.off += k;
    pos += k;
    settle(segs, c);
  }
  return c;
}

// out[i] = ((x_0[i] + x_1[i]) + …) + x_{w-1}[i] for i < n, with x_r =
// src[r]; `out` may be one of the sources. It vectorizes across i and never
// across r, so each element keeps the association of a sequential
// rank-ordered sum — the order of single-process micro-batch accumulation.
void rank_ordered_sum(float* out, const float* const* src, int w, int64_t n) {
  constexpr int64_t kChunk = 512;
  float acc[kChunk];
  for (int64_t i = 0; i < n; i += kChunk) {
    const int64_t m = std::min(kChunk, n - i);
    std::memcpy(acc, src[0] + i, bytes(m));
    for (int r = 1; r < w; ++r) {
      const float* x = src[r] + i;
      for (int64_t j = 0; j < m; ++j) acc[j] += x[j];
    }
    std::memcpy(out + i, acc, bytes(m));
  }
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
  if (!obs::telemetry_enabled()) {
    wait_barrier();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  wait_barrier();
  static obs::Counter& count =
      obs::Registry::instance().counter("dist.barriers");
  static obs::Counter& wait_us =
      obs::Registry::instance().counter("dist.barrier_wait_us");
  count.add(1);
  wait_us.add(std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count());
}

void Communicator::wait_barrier() {
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

template <class Write, class Read>
void Communicator::for_each_bucket(std::span<const Segment> segs, int64_t cap,
                                   Write write, Read read) {
  Cursor c;
  settle(segs, c);
  while (c.seg < segs.size()) {
    float* const buf = half();
    const Cursor next = for_each_piece(
        segs, c, cap, [&](const Piece& p) { write(buf, p); });
    barrier();  // every rank's writes of this bucket are visible
    for_each_piece(segs, c, cap, [&](const Piece& p) { read(buf, p); });
    ++bucket_;
    c = next;
  }
}

void Communicator::reduce_scatter_sum(std::span<const Segment> segs) {
  if (world_ <= 1) return;
  const auto slot = [&](float* buf, int r) { return buf + r * kBucketFloats; };
  for_each_bucket(
      segs, kBucketFloats,
      [&](float* buf, const Piece& p) {
        // Publish what the other ranks sum; an owned piece stays local.
        if (p.owner != rank_)
          std::memcpy(slot(buf, rank_) + p.pos, p.data, bytes(p.n));
      },
      [&](float* buf, const Piece& p) {
        if (p.owner != rank_ && p.owner != kEveryRank) return;
        const float* src[kMaxRanks] = {};
        for (int r = 0; r < world_; ++r)
          src[r] = r == rank_ ? p.data : slot(buf, r) + p.pos;
        rank_ordered_sum(p.data, src, world_, p.n);
      });
}

void Communicator::all_gather(std::span<const Segment> segs) {
  if (world_ <= 1) return;
  // One bucket spans the whole half: each stream float has one writer.
  for_each_bucket(
      segs, world_ * kBucketFloats,
      [&](float* buf, const Piece& p) {
        if (p.owner == rank_) std::memcpy(buf + p.pos, p.data, bytes(p.n));
      },
      [&](float* buf, const Piece& p) {
        if (p.owner != rank_ && p.owner != kEveryRank)
          std::memcpy(p.data, buf + p.pos, bytes(p.n));
      });
}

void Communicator::allreduce_sum(float* data, int64_t n) {
  const Segment s{data, n, kEveryRank};
  reduce_scatter_sum({&s, 1});
}

void Communicator::broadcast(float* data, int64_t n, int root) {
  const Segment s{data, n, root};
  all_gather({&s, 1});
}

}  // namespace apollo::dist
