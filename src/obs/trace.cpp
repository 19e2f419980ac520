#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json_writer.h"

namespace apollo::obs {

namespace {

using Clock = std::chrono::steady_clock;

struct Event {
  const char* name;
  const char* cat;
  char ph;  // 'B', 'E', 'i'
  double ts_us;
  int tid;
};

struct TraceState {
  std::mutex mu;
  std::vector<Event> events;
  std::string path;
  Clock::time_point t0 = Clock::now();
  bool atexit_registered = false;
};

TraceState& state() {
  // Immortal: trace_flush runs from an atexit handler that may be invoked
  // after a plain function-local static would already be destroyed.
  static TraceState* s = new TraceState;  // lint:allow(raw-new-delete)
  return *s;
}

std::atomic<bool> g_enabled{false};

int thread_id() {
  static std::atomic<int> next{1};
  thread_local const int tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

void flush_at_exit() { trace_flush(); }

// Enable tracing to `path` ("" disables). Caller holds no lock.
void configure(const std::string& path) {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.path = path;
  s.events.clear();
  s.t0 = Clock::now();
  const bool on = !path.empty();
  if (on && !s.atexit_registered) {
    s.atexit_registered = true;
    std::atexit(flush_at_exit);
  }
  g_enabled.store(on, std::memory_order_release);
}

void record(const char* name, const char* cat, char ph) {
  TraceState& s = state();
  const int tid = thread_id();
  std::lock_guard<std::mutex> lock(s.mu);
  const double ts_us =
      std::chrono::duration<double, std::micro>(Clock::now() - s.t0).count();
  s.events.push_back(Event{name, cat, ph, ts_us, tid});
}

}  // namespace

bool trace_enabled() {
  static const bool env_init = [] {
    const char* e = std::getenv("APOLLO_TRACE");
    if (e != nullptr && e[0] != '\0') configure(e);
    return true;
  }();
  (void)env_init;
  return g_enabled.load(std::memory_order_acquire);
}

void trace_set_path(const char* path) {
  if (path == nullptr) {
    const char* e = std::getenv("APOLLO_TRACE");
    configure(e != nullptr ? e : "");
    return;
  }
  configure(path);
}

void trace_begin(const char* name, const char* cat) { record(name, cat, 'B'); }
void trace_end(const char* name, const char* cat) { record(name, cat, 'E'); }
void trace_instant(const char* name, const char* cat) {
  if (trace_enabled()) record(name, cat, 'i');
}

void trace_flush() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.path.empty()) return;
  std::FILE* f = std::fopen(s.path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "APOLLO_TRACE: cannot open %s for writing\n",
                 s.path.c_str());
    return;
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  std::string line;
  for (size_t i = 0; i < s.events.size(); ++i) {
    const Event& e = s.events[i];
    line.clear();
    line += "{\"name\":";
    json_append_escaped(line, e.name);
    line += ",\"cat\":";
    json_append_escaped(line, e.cat);
    line += ",\"ph\":\"";
    line.push_back(e.ph);
    line += "\"";
    if (e.ph == 'i') line += ",\"s\":\"t\"";  // thread-scoped instant
    char buf[96];
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f,\"pid\":1,\"tid\":%d}",
                  e.ts_us, e.tid);
    line += buf;
    if (i + 1 < s.events.size()) line.push_back(',');
    line.push_back('\n');
    std::fputs(line.c_str(), f);
  }
  std::fputs("]}\n", f);
  std::fclose(f);
}

}  // namespace apollo::obs
