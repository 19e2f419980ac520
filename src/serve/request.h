// Request-side value types shared by the serving subsystem (DESIGN.md §14):
// the sampling parameters a client may set, the queued-request record the
// scheduler owns, and the terminal finish reasons a stream reports.
//
// A request's generated output is a pure function of (model weights, prompt,
// GenParams) — per-request seeded sampling and batch-order-independent
// decode make the batch composition invisible to each client
// (tests/serve_test.cpp pins this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace apollo::serve {

// Per-request sampling controls plus the generation cap, shared by the HTTP
// engine and serve::generate. temperature == 0 means greedy argmax, which
// is also the deterministic mode the equivalence tests use.
struct GenParams {
  int max_tokens = 16;      // generation cap (finish_reason "length")
  float temperature = 0.f;  // 0 ⇒ greedy argmax
  int top_k = 0;            // 0 ⇒ full distribution
  float top_p = 1.f;        // nucleus mass cap
  uint64_t seed = 1234;     // per-request sampling stream
  int32_t stop_token = -1;  // emitting this token ends the stream ("stop")
};

// Why a stream ended. kDeadline may cut a stream short; the final JSONL line
// always carries the reason, so clients can distinguish a complete
// generation from a truncated one. Draining for shutdown lets every admitted
// request finish, so it has no reason of its own.
enum class FinishReason { kLength, kStop, kDeadline };

const char* finish_reason_name(FinishReason r);

// One queued generation request. `deadline_ms` is absolute (same clock as
// the scheduler's `now_ms` inputs; the engine uses a steady clock, unit
// tests inject plain integers); 0 means no deadline.
struct ServeRequest {
  uint64_t id = 0;
  std::vector<int32_t> prompt;
  GenParams params;
  int64_t submit_ms = 0;
  int64_t deadline_ms = 0;  // absolute; 0 = none
  uint64_t conn = 0;        // originating connection (opaque to the scheduler)
};

inline const char* finish_reason_name(FinishReason r) {
  switch (r) {
    case FinishReason::kLength: return "length";
    case FinishReason::kStop: return "stop";
    case FinishReason::kDeadline: return "deadline";
  }
  return "unknown";
}

}  // namespace apollo::serve
