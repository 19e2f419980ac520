// Per-step training telemetry, gated by APOLLO_METRICS=metrics.jsonl.
//
// During a step, instrumented code contributes fields to the *current
// record* (the trainer sets loss/grad-norm/lr, the optimizer sets
// scaling-factor stats, clip fraction and refresh counts); the trainer then
// commits the record, which appends exactly one JSON object line to the
// metrics file. When the process exits (or the path changes), the metrics
// registry (obs/metrics.h) is appended as trailing `{"metric": ...}` lines,
// so one file carries both the per-step series and the whole-run counters.
//
// Zero overhead when off: every entry point starts with one branch on a
// cached flag (the APOLLO_CHECK_FINITE pattern); no field storage, file I/O
// or string formatting happens unless APOLLO_METRICS is set. Enabling
// telemetry never changes training results — every contribution is a pure
// observation (tests/obs_test.cpp asserts bit-identical losses on/off).
//
// The schema — every key, its type, unit and emission point — is documented
// in docs/OBSERVABILITY.md.
#pragma once

#include <cstddef>
#include <cstdint>

namespace apollo::obs {

// True when a metrics destination is configured (APOLLO_METRICS env or
// telemetry_set_path). Cached; one relaxed load per query.
bool telemetry_enabled();

// Override the destination: a path enables telemetry, "" disables, nullptr
// re-reads the environment. Finalizes (registry dump + close) any file that
// was open. For tests and tools.
void telemetry_set_path(const char* path);

class Telemetry {
 public:
  static Telemetry& instance();

  // Set a field of the current step record (last write wins).
  void set(const char* key, double v);
  void set_int(const char* key, int64_t v);
  // Add to an integer field (creates it at 0).
  void count(const char* key, int64_t n = 1);
  // Feed values into a distribution; commit() expands each sampled key K
  // into K_min / K_med / K_max / K_n fields.
  void sample(const char* key, double v);
  void sample(const char* key, const float* v, size_t n);

  // Append one JSON line for `step` with all accumulated fields (sorted by
  // key, "step" first) and clear the record.
  void commit(int64_t step);
  // Clear the record without writing it (a step the watchdog rolls back).
  void discard();

  // Append the metrics-registry snapshot and close the file. Called
  // automatically at exit and on path changes.
  void finalize();

 private:
  friend void telemetry_set_path(const char* path);
  Telemetry() = default;
  struct Impl;
  Impl& impl();
};

inline Telemetry& telemetry() { return Telemetry::instance(); }

}  // namespace apollo::obs
