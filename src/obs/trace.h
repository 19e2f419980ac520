// Scoped timers emitting chrome://tracing-format JSON.
//
// Set APOLLO_TRACE=out.json (or call trace_set_path()) and every
// APOLLO_TRACE_SCOPE in the library records a begin/end ("B"/"E") event
// pair; trace_instant() records point events (projector refreshes,
// checkpoint boundaries). The file is written at process exit (and by any
// explicit trace_flush()) and loads directly in chrome://tracing or
// https://ui.perfetto.dev.
//
// Zero overhead when off: the macro's constructor is a single branch on a
// cached flag — no clock read, no allocation. When on, each event appends
// one small record to a mutex-guarded buffer; timestamps come from
// std::chrono::steady_clock, microseconds relative to trace start. Events
// are buffered for the whole process (tracing targets bounded runs — a few
// thousand steps — not servers).
//
// Scope/instant names must be string literals or otherwise outlive the
// process (they are stored as const char*).
#pragma once

namespace apollo::obs {

// True when a trace destination is configured (APOLLO_TRACE env or
// trace_set_path). Cached; one relaxed load per query.
bool trace_enabled();

// Override the destination: a path enables tracing (clearing any buffered
// events), "" disables, nullptr re-reads the environment. For tests and
// tools; call only outside open scopes.
void trace_set_path(const char* path);

// Write all buffered events to the configured path (full rewrite — safe to
// call repeatedly; also registered atexit when tracing is enabled).
void trace_flush();

void trace_begin(const char* name, const char* cat);
void trace_end(const char* name, const char* cat);
void trace_instant(const char* name, const char* cat);

class TraceScope {
 public:
  explicit TraceScope(const char* name, const char* cat = "apollo")
      : active_(trace_enabled()), name_(name), cat_(cat) {
    if (active_) trace_begin(name_, cat_);
  }
  ~TraceScope() {
    if (active_) trace_end(name_, cat_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool active_;
  const char* name_;
  const char* cat_;
};

}  // namespace apollo::obs

#define APOLLO_TRACE_CONCAT2_(a, b) a##b
#define APOLLO_TRACE_CONCAT_(a, b) APOLLO_TRACE_CONCAT2_(a, b)
// Time the enclosing scope as one chrome-trace slice.
#define APOLLO_TRACE_SCOPE(name, cat)                       \
  ::apollo::obs::TraceScope APOLLO_TRACE_CONCAT_(           \
      apollo_trace_scope_, __LINE__)(name, cat)
