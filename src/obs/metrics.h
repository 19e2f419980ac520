// Process-wide metrics registry: counters, gauges, and histograms with
// fixed log-spaced buckets.
//
// Hot-path contract: mutation is lock-free — every field of a metric is one
// relaxed atomic. Every registry write in src/ runs on the calling thread,
// never inside a parallel_for body (the serve engine writes from its pump
// thread), so writers do not contend. Concurrent writers stay correct:
//   * counter values, histogram counts and bucket counts are integers, so
//     they are exact under any interleaving and any thread count;
//   * histogram min and max start at +∞ and −∞ and only move by CAS, so
//     they are exact too;
//   * histogram `sum` is a double — exact whenever the observed values are
//     integer-valued (or observed by a single thread); instrumentation that
//     needs bit-exact sums across APOLLO_THREADS settings must observe from
//     outside parallel regions, mirroring the thread pool's rule that
//     whole-tensor reductions stay sequential.
//
// Registration (`Registry::counter("name")` etc.) takes a mutex but returns
// a stable reference — hot sites look a metric up once and cache it.
// Export is JSON-lines, one metric per line, sorted by name (see
// docs/OBSERVABILITY.md for the schema).
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>

namespace apollo::obs {

class Counter {
 public:
  void add(int64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Last-writer-wins scalar (learning rate, live byte counts, …).
class Gauge {
 public:
  void set(double v) {
    bits_.store(std::bit_cast<uint64_t>(v), std::memory_order_relaxed);
  }
  double value() const {
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
  }
  void reset() { bits_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> bits_{0};  // a double's bits; 0 is +0.0
};

// Histogram over (0, ∞) with fixed log-spaced buckets: bucket 0 is the
// underflow bucket (v ≤ 1e-9, including zero, negatives and NaN), buckets
// 1…60 have upper edges 1e-9·10^(i/4) — four buckets per decade from 1e-9
// to 1e6 — and bucket 61 catches overflow. The edges are compile-time
// constants of the schema, asserted by tests/obs_test.cpp.
class Histogram {
 public:
  static constexpr int kBuckets = 62;
  static constexpr double kMinEdge = 1e-9;
  static constexpr double kMaxEdge = 1e6;

  // Upper edge of bucket i (inclusive), for i in [0, kBuckets-2]; the last
  // bucket is unbounded.
  static double bucket_upper(int i);
  // Bucket that `v` lands in.
  static int bucket_index(double v);

  void observe(double v);

  struct Snapshot {
    int64_t count = 0;
    double sum = 0;
    double min = 0;  // meaningful only when count > 0
    double max = 0;
    std::array<int64_t, kBuckets> buckets{};
  };
  Snapshot snapshot() const;
  void reset();

 private:
  static constexpr uint64_t kPlusInf =
      std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity());
  static constexpr uint64_t kMinusInf =
      std::bit_cast<uint64_t>(-std::numeric_limits<double>::infinity());

  // Doubles are stored as their bits and updated by CAS.
  std::atomic<int64_t> count_{0};
  std::atomic<uint64_t> sum_bits_{0};
  std::atomic<uint64_t> min_bits_{kPlusInf};
  std::atomic<uint64_t> max_bits_{kMinusInf};
  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
};

// Name → metric registry. Lookup creates on first use; references stay
// valid for the life of the process (reset() zeroes values in place, it
// never removes metrics).
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  // JSON-lines snapshot of every registered metric, sorted by name.
  std::string export_jsonl() const;

  // Zero every metric (tests / per-run isolation). References stay valid.
  void reset();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace apollo::obs
