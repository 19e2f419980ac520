// Deterministic fault-injection harness, armed by APOLLO_FAULTS.
//
// A fault spec is a semicolon-separated list of `kind@step` events, e.g.
//
//   APOLLO_FAULTS="nan_grad@40;trunc_ckpt@80;crash@120"
//
// Each event fires exactly once, at a deterministic point:
//
//   nan_grad@S     the trainer poisons one gradient entry with a quiet NaN
//                  after the backward pass of step index S (0-based);
//   crash@S        the trainer calls _Exit(kCrashExitCode) at the *start*
//                  of step index S — a simulated kill: no atexit flushing,
//                  no destructors, exactly like SIGKILL mid-training;
//   crash_save@S   train::commit_file leaves half of the temp file on
//                  disk and calls _Exit(kCrashInSaveExitCode) — proves the
//                  temp+rename protocol never exposes a torn final file;
//   trunc_ckpt@S   train::commit_file truncates the file it just committed
//                  to half its size — the torn write a non-atomic writer
//                  would have left;
//   bitflip_opt@S  train::commit_file flips one bit mid-way through the
//                  last CRC section of the file it just committed, the
//                  optimizer state — undetectable without the per-section
//                  CRCs;
//   hang@S         the trainer stops making progress at the start of step
//                  index S (an infinite nanosleep loop): the process stays
//                  alive but its heartbeat stalls, exercising the dist
//                  supervisor's hung-rank timeout path.
//
// The three checkpoint faults fire in the first checkpoint file the process
// commits at or after step S: a weights file, or a rank's optimizer shard.
//
// Any event may carry an optional rank scope, `kind@step:rank` (e.g.
// `crash@60:2`): it fires only in the process whose dist rank — declared
// via fault::set_rank() — equals `rank`. Rank-scoped events never fire in
// single-process runs (the default declared rank is -1).
//
// The injector is process-global and cached like the other APOLLO_* knobs:
// when APOLLO_FAULTS is unset, every query is one branch on a cached flag.
// Tests arm it programmatically with fault::set_spec(). Every fired event
// increments the `fault.injected` registry counter and logs one line to
// stderr, so recovery telemetry can prove which faults a run survived.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace apollo::fault {

// Exit codes of the simulated-crash faults, asserted by subprocess tests.
inline constexpr int kCrashExitCode = 42;
inline constexpr int kCrashInSaveExitCode = 86;

enum class Kind : uint8_t {
  kNanGrad,
  kCrash,
  kCrashInSave,
  kTruncCkpt,
  kBitflipOpt,
  kHang,
};

const char* kind_name(Kind k);

struct Event {
  Kind kind = Kind::kNanGrad;
  int64_t step = 0;
  int rank = -1;  // -1 = any process; >= 0 fires only at that dist rank
  bool fired = false;
};

struct Plan {
  std::vector<Event> events;
};

// Parses a fault spec. Returns false and sets `*err` (when non-null) on a
// malformed spec: unknown kind, missing '@', non-numeric/negative step, or
// an empty event between separators.
bool parse_spec(const std::string& spec, Plan* plan, std::string* err);

// True when the injector is armed with at least one unfired event. One
// cached-env branch when APOLLO_FAULTS is unset.
bool enabled();

// Override the active plan: a spec string arms the injector, "" disarms,
// nullptr re-reads APOLLO_FAULTS. A malformed spec aborts with a
// diagnostic — a fault harness that silently mis-parses would make a
// failing resilience test look like a pass.
void set_spec(const char* spec);

// Declares this process's data-parallel rank (dist workers call it right
// after fork). Rank-scoped events fire only when their rank matches; the
// default of -1 means "no declared rank", under which rank-scoped events
// never fire.
void set_rank(int rank);

// Consumes (at most once) the first unfired event of `kind` whose step is
// exactly `step`. Used for the trainer-loop faults (nan_grad, crash).
bool take_at(Kind kind, int64_t step);

// Consumes the first unfired event of `kind` whose step is ≤ `step` (the
// event "ripens" at its step and fires at the next opportunity). Used for
// the checkpoint faults, which can only fire when a save actually happens.
bool take_at_or_after(Kind kind, int64_t step);

}  // namespace apollo::fault
