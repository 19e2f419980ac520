#include "obs/metrics.h"

#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json_writer.h"

namespace apollo::obs {

namespace {

// v += x on an atomic double stored as bits (CAS loop — C++20's
// atomic<double>::fetch_add is not yet universal).
void atomic_add_double(std::atomic<uint64_t>& bits, double x) {
  uint64_t old_bits = bits.load(std::memory_order_relaxed);
  for (;;) {
    const uint64_t new_bits =
        std::bit_cast<uint64_t>(std::bit_cast<double>(old_bits) + x);
    if (bits.compare_exchange_weak(old_bits, new_bits,
                                   std::memory_order_relaxed))
      return;
  }
}

void atomic_min_double(std::atomic<uint64_t>& bits, double x) {
  uint64_t old_bits = bits.load(std::memory_order_relaxed);
  while (x < std::bit_cast<double>(old_bits)) {
    if (bits.compare_exchange_weak(old_bits, std::bit_cast<uint64_t>(x),
                                   std::memory_order_relaxed))
      return;
  }
}

void atomic_max_double(std::atomic<uint64_t>& bits, double x) {
  uint64_t old_bits = bits.load(std::memory_order_relaxed);
  while (x > std::bit_cast<double>(old_bits)) {
    if (bits.compare_exchange_weak(old_bits, std::bit_cast<uint64_t>(x),
                                   std::memory_order_relaxed))
      return;
  }
}

}  // namespace

// --- Histogram -------------------------------------------------------------

namespace {
struct BucketEdges {
  double e[Histogram::kBuckets - 1];
  BucketEdges() {
    // e[i] = 1e-9 · 10^(i/4): four log-spaced buckets per decade.
    for (int i = 0; i < Histogram::kBuckets - 1; ++i)
      e[i] = Histogram::kMinEdge * std::pow(10.0, static_cast<double>(i) / 4.0);
    e[0] = Histogram::kMinEdge;                   // exact endpoints
    e[Histogram::kBuckets - 2] = Histogram::kMaxEdge;
  }
};
const BucketEdges& edges() {
  static const BucketEdges be;
  return be;
}
}  // namespace

double Histogram::bucket_upper(int i) { return edges().e[i]; }

int Histogram::bucket_index(double v) {
  const double* e = edges().e;
  if (std::isnan(v) || v <= e[0]) return 0;
  if (v > e[kBuckets - 2]) return kBuckets - 1;
  // Candidate from the closed form, then exact adjustment against the edge
  // array (log10 rounding can be off by one at bucket boundaries).
  int k = static_cast<int>(std::floor(std::log10(v / kMinEdge) * 4.0)) + 1;
  if (k < 1) k = 1;
  if (k > kBuckets - 2) k = kBuckets - 2;
  while (k > 1 && v <= e[k - 1]) --k;
  while (k < kBuckets - 2 && v > e[k]) ++k;
  return k;
}

void Histogram::observe(double v) {
  count_.fetch_add(1, std::memory_order_relaxed);
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(sum_bits_, v);
  atomic_min_double(min_bits_, v);
  atomic_max_double(max_bits_, v);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot out;
  out.count = count_.load(std::memory_order_relaxed);
  out.sum = std::bit_cast<double>(sum_bits_.load(std::memory_order_relaxed));
  if (out.count > 0) {
    out.min = std::bit_cast<double>(min_bits_.load(std::memory_order_relaxed));
    out.max = std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  }
  for (int b = 0; b < kBuckets; ++b)
    out.buckets[static_cast<size_t>(b)] =
        buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  return out;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
  min_bits_.store(kPlusInf, std::memory_order_relaxed);
  max_bits_.store(kMinusInf, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// --- Registry --------------------------------------------------------------

struct Registry::Impl {
  std::mutex mu;
  // Sorted maps: export order is the lexicographic metric name order, never
  // a function of registration order.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry::Impl& Registry::impl() const {
  // Intentionally immortal (never destroyed): the atexit-registered
  // telemetry finalizer exports the registry, and this Impl may be
  // constructed *after* that finalizer is registered — a plain function
  // static would then be destroyed first and export_jsonl would touch a
  // dead mutex.
  static Impl* im = new Impl;  // lint:allow(raw-new-delete)
  return *im;
}

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Counter& Registry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  auto& slot = im.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

std::string Registry::export_jsonl() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::string out;
  for (const auto& [name, c] : im.counters) {
    JsonObject o;
    o.field_str("metric", name.c_str())
        .field_str("type", "counter")
        .field_int("value", c->value());
    out += o.str();
    out.push_back('\n');
  }
  for (const auto& [name, g] : im.gauges) {
    JsonObject o;
    o.field_str("metric", name.c_str())
        .field_str("type", "gauge")
        .field("value", g->value());
    out += o.str();
    out.push_back('\n');
  }
  for (const auto& [name, h] : im.histograms) {
    const Histogram::Snapshot s = h->snapshot();
    JsonObject o;
    o.field_str("metric", name.c_str())
        .field_str("type", "histogram")
        .field_int("count", s.count)
        .field("sum", s.sum);
    if (s.count > 0) {
      o.field("min", s.min).field("max", s.max);
    }
    // Non-empty buckets as [upper_edge, count] pairs; the last (overflow)
    // bucket has no finite edge and is emitted with null.
    std::string buckets = "[";
    bool first = true;
    for (int b = 0; b < Histogram::kBuckets; ++b) {
      const int64_t n = s.buckets[static_cast<size_t>(b)];
      if (n == 0) continue;
      if (!first) buckets.push_back(',');
      first = false;
      buckets.push_back('[');
      if (b < Histogram::kBuckets - 1)
        json_append_double(buckets, Histogram::bucket_upper(b));
      else
        buckets += "null";
      buckets.push_back(',');
      json_append_int(buckets, n);
      buckets.push_back(']');
    }
    buckets.push_back(']');
    o.field_raw("buckets", buckets);
    out += o.str();
    out.push_back('\n');
  }
  return out;
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, c] : im.counters) c->reset();
  for (auto& [name, g] : im.gauges) g->reset();
  for (auto& [name, h] : im.histograms) h->reset();
}

}  // namespace apollo::obs
