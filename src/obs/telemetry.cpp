#include "obs/telemetry.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace apollo::obs {

namespace {
std::atomic<bool> g_enabled{false};
// Set by any telemetry_set_path() call: an explicit destination (a DDP
// worker's per-rank path, a test override) must not be clobbered by the
// lazy APOLLO_METRICS pickup in telemetry_enabled().
std::atomic<bool> g_path_overridden{false};

struct Field {
  double d = 0;
  int64_t i = 0;
  bool is_int = false;
};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
}  // namespace

struct Telemetry::Impl {
  std::mutex mu;
  std::string path;
  std::unique_ptr<std::FILE, FileCloser> file;
  // Sorted: the field order in every line is the lexicographic key order,
  // independent of the order instrumentation sites ran in.
  std::map<std::string, Field> fields;
  std::map<std::string, std::vector<double>> samples;
  bool atexit_registered = false;

  void open_locked() {
    if (file != nullptr || path.empty()) return;
    file.reset(std::fopen(path.c_str(), "w"));
    if (file == nullptr) {
      std::fprintf(stderr, "APOLLO_METRICS: cannot open %s for writing\n",
                   path.c_str());
      path.clear();
      g_enabled.store(false, std::memory_order_release);
    }
  }

  void finalize_locked() {
    if (file == nullptr) return;
    const std::string registry = Registry::instance().export_jsonl();
    std::fputs(registry.c_str(), file.get());
    file.reset();
  }
};

Telemetry::Impl& Telemetry::impl() {
  // Immortal for the same reason as Registry::impl(): atexit callbacks and
  // static destructors interleave in LIFO order, and this state must outlive
  // every handler that might flush it.
  static Impl* im = new Impl;  // lint:allow(raw-new-delete)
  return *im;
}

Telemetry& Telemetry::instance() {
  static Telemetry t;
  return t;
}

namespace {
void finalize_at_exit() { Telemetry::instance().finalize(); }
}  // namespace

bool telemetry_enabled() {
  static const bool env_init = [] {
    if (!g_path_overridden.load(std::memory_order_acquire)) {
      const char* e = std::getenv("APOLLO_METRICS");
      if (e != nullptr && e[0] != '\0') telemetry_set_path(e);
    }
    return true;
  }();
  (void)env_init;
  return g_enabled.load(std::memory_order_acquire);
}

void telemetry_set_path(const char* path) {
  g_path_overridden.store(true, std::memory_order_release);
  std::string resolved;
  if (path == nullptr) {
    const char* e = std::getenv("APOLLO_METRICS");
    resolved = e != nullptr ? e : "";
  } else {
    resolved = path;
  }
  Telemetry& t = Telemetry::instance();
  t.finalize();
  Telemetry::Impl& im = t.impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.path = resolved;
  im.fields.clear();
  im.samples.clear();
  const bool on = !resolved.empty();
  if (on && !im.atexit_registered) {
    im.atexit_registered = true;
    std::atexit(finalize_at_exit);
  }
  g_enabled.store(on, std::memory_order_release);
}

void Telemetry::set(const char* key, double v) {
  if (!telemetry_enabled()) return;
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  Field& f = im.fields[key];
  f.d = v;
  f.is_int = false;
}

void Telemetry::set_int(const char* key, int64_t v) {
  if (!telemetry_enabled()) return;
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  Field& f = im.fields[key];
  f.i = v;
  f.is_int = true;
}

void Telemetry::count(const char* key, int64_t n) {
  if (!telemetry_enabled()) return;
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  Field& f = im.fields[key];
  f.is_int = true;
  f.i += n;
}

void Telemetry::sample(const char* key, double v) {
  if (!telemetry_enabled()) return;
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.samples[key].push_back(v);
}

void Telemetry::sample(const char* key, const float* v, size_t n) {
  if (!telemetry_enabled()) return;
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<double>& dst = im.samples[key];
  dst.reserve(dst.size() + n);
  for (size_t i = 0; i < n; ++i) dst.push_back(static_cast<double>(v[i]));
}

void Telemetry::commit(int64_t step) {
  if (!telemetry_enabled()) return;
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.open_locked();
  if (im.file == nullptr) return;

  // Expand sampled distributions into min/med/max/n fields. The median is
  // the exact lower median (element at index (n-1)/2 of the sorted values).
  for (auto& [key, vals] : im.samples) {
    if (vals.empty()) continue;
    std::vector<double> sorted = vals;
    std::sort(sorted.begin(), sorted.end());
    const size_t mid = (sorted.size() - 1) / 2;
    im.fields[key + "_min"] = Field{sorted.front(), 0, false};
    im.fields[key + "_med"] = Field{sorted[mid], 0, false};
    im.fields[key + "_max"] = Field{sorted.back(), 0, false};
    im.fields[key + "_n"] =
        Field{0, static_cast<int64_t>(sorted.size()), true};
  }

  JsonObject o;
  o.field_int("step", step);
  for (const auto& [key, f] : im.fields) {
    if (f.is_int)
      o.field_int(key.c_str(), f.i);
    else
      o.field(key.c_str(), f.d);
  }
  std::fputs(o.str().c_str(), im.file.get());
  std::fputc('\n', im.file.get());
  std::fflush(im.file.get());
  im.fields.clear();
  im.samples.clear();
}

void Telemetry::discard() {
  if (!telemetry_enabled()) return;
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.fields.clear();
  im.samples.clear();
}

void Telemetry::finalize() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.finalize_locked();
}

}  // namespace apollo::obs
